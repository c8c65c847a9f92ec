(** The paper's Adjusting Technique (Section III.C).

    When both identities sit in the same bottleneck pair on
    [P_v(w₁⁰, w₂⁰)], shifting weight from [v²] to [v¹] along
    [(w₁⁰ + z, w₂⁰ − z)] keeps the decomposition — and hence the
    attacker's total utility — unchanged, up to a critical [z] where the
    pair splits in two.  The proof replaces the initial path by the path at
    the critical point; this module finds that point and checks the
    invariance. *)

type result = {
  z_lo : Rational.t;  (** largest tested z with the initial decomposition *)
  z_hi : Rational.t;  (** smallest tested z past the change (or [z_max] when
                          no change occurs below it) *)
  changed : bool;  (** whether a change point exists below [z_max] *)
  same_pair : bool;
      (** whether the two identities sit on the same side of the same
          bottleneck pair at z = 0 — the technique's precondition
          (shifting weight within one side keeps the pair's α-ratio) *)
  utility_constant : bool;
      (** whether [U_{v¹} + U_{v²}] stayed equal to its z = 0 value at
          every probed z with the initial decomposition; only tracked when
          [same_pair] (in different pairs the α-ratios move and the
          utility legitimately changes) *)
}

val find_critical :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> w1:Rational.t ->
  z_max:Rational.t -> result
(** Scan [z ∈ [0, z_max]] on [P_v(w1 + z, w2 − z)]: a [ctx.grid] walk
    to the first changed cell, then bisection to a bracket at most
    [z_max·2⁻²⁰] wide.
    @raise Invalid_argument when [z_max] exceeds [w₂ = w_v − w1]. *)
