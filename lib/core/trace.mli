(** The complete subinterval structure of Section III.B.

    As agent [v]'s reported weight [x] sweeps [[0, w_v]], the decomposition
    is piecewise constant: the paper partitions the range into subintervals
    [⟨a_i, b_i⟩] with a fixed decomposition [𝔅^i] inside each, adjacent
    decompositions related by the merge/split rules of Proposition 12.
    This module materialises that object from the exact pieces of
    {!Breakpoints.exact_pieces}: the interval list with exact ({!Qx.t})
    bounds, each interval's pair structure, [v]'s class and pair index
    inside it, and the classified transition at every boundary. *)

type interval = {
  lo : Qx.t;
  hi : Qx.t;  (** exact piece bounds; [lo = hi] for a one-point structure *)
  sample : Rational.t;  (** a rational point of the piece *)
  structure : Decompose.t;  (** the decomposition throughout the piece *)
  v_class : Classes.cls;  (** [v]'s class, read at [sample] *)
  v_pair : int;  (** index of the pair containing [v] *)
}

type transition = {
  at : Qx.t;  (** exact boundary between consecutive intervals *)
  kind : [ `Merge | `Split | `Other ];
}

type t = { v : int; intervals : interval list; transitions : transition list }

val compute : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> t
(** The exact pieces of [v]'s reported weight, classified; consecutive
    intervals always differ, so there is one transition per boundary.
    Solver and budget come from [ctx].
    @raise Invalid_argument when some vertex has degree > 2. *)

val check_prop12 : t -> (unit, string) result
(** Proposition 11/12 on the trace: [v]'s class sides form a C-phase then
    a B-phase, and the number of pairs changes by at most one across each
    merge/split transition. *)

val pp : Format.formatter -> t -> unit

val to_csv : t -> string
(** One line per interval: [lo,hi,pairs,v_class,v_alpha]. *)
