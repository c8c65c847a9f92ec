(** Machine-checkable certificates of bottleneck decompositions.

    A solver claims [(B_1,C_1), …, (B_k,C_k)] is {e the} decomposition.
    Trusting that claim means trusting Dinkelbach + max-flow + the DP.
    This module produces and re-checks an independent witness:

    for each stage [i], a feasible flow on the Wu–Zhang parametric network
    of [G_i] at ratio [α_i] that saturates every source edge.  Saturation
    proves [min_S (w(Γ(S)) − α_i·w(S)) = 0] over [G_i], i.e. {e no} vertex
    set of the remaining graph beats [α_i] — exactly the minimality of the
    claimed bottleneck ratio — and [α(B_i) = α_i] is a direct evaluation.
    Checking a certificate needs only arithmetic and flow-conservation
    sums; no optimisation is re-run.

    (The witness certifies the α-ratios and bottleneck property; the
    {e maximality} of each [B_i] — a lattice-top property — is not covered
    and remains solver territory, cross-checked by the test suite against
    the exhaustive oracle.) *)

type stage = {
  alpha : Rational.t;  (** the claimed stage ratio *)
  flow : ((int * int) * Rational.t) list;
      (** witness flow on the stage's parametric network: ((u, v), f) with
          [u] on the S-side and [v ∈ Γ(u)] in [G_i] *)
}

type t = stage list

val build : Graph.t -> Decompose.t -> t
(** Compute witnesses by max flow.
    @raise Invalid_argument if some stage's network does not saturate —
    which would mean the claimed decomposition is wrong. *)

val verify : Graph.t -> Decompose.t -> t -> (unit, string) result
(** Re-check a certificate against a graph and claimed decomposition:
    stage masks follow Definition 2; each [α_i = w(C_i)/w(B_i)]; each
    witness flow is non-negative, supported on [G_i]-edges, respects the
    capacities [α_i·w_u] (S-side) and [w_v] (Γ-side), and saturates every
    S-side vertex.  Runs in time linear in the certificate size. *)
