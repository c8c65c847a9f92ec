(** Univariate polynomials over exact rationals, with Sturm-sequence root
    counting and isolation.

    On a structure-constant piece the attacker's utility is a rational
    function [N(x)/D(x)] of small-degree polynomials built here; the
    symbolic Theorem 8 verifier and the exact sweeps maximise it from
    the roots of [N′D − ND′], and the k-identity sweep isolates those
    roots with {!isolate_roots} when they exceed degree 2. *)

type t
(** A polynomial; the zero polynomial has degree [-1]. *)

(** {1 Construction} *)

val zero : t
val one : t
val x : t

val of_coeffs : Rational.t list -> t
(** Coefficients from constant term upward: [of_coeffs [a0; a1; a2]] is
    [a0 + a1·x + a2·x²].
    @raise Invalid_argument on an infinite coefficient. *)

val constant : Rational.t -> t
val linear : Rational.t -> Rational.t -> t
(** [linear a b] is [a + b·x]. *)

(** {1 Structure} *)

val degree : t -> int
val coeff : t -> int -> Rational.t
val coeffs : t -> Rational.t list
(** Constant term upward; empty for zero. *)

val equal : t -> t -> bool
val is_zero : t -> bool
val leading : t -> Rational.t
(** @raise Invalid_argument on the zero polynomial. *)

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rational.t -> t -> t
val pow : t -> int -> t

val divmod : t -> t -> t * t
(** Euclidean division.
    @raise Division_by_zero on a zero divisor. *)

val derive : t -> t
val eval : t -> Rational.t -> Rational.t

(** {1 Roots and signs} *)

val sturm_sequence : t -> t list
(** The canonical Sturm chain of a non-zero polynomial (square-free part
    is taken internally, so repeated roots are counted once). *)

val count_roots : t -> lo:Rational.t -> hi:Rational.t -> int
(** Number of {e distinct} real roots in the half-open interval
    [(lo, hi]].  [t] must be non-zero. *)

val isolate_roots :
  t -> lo:Rational.t -> hi:Rational.t -> (Rational.t * Rational.t) list
(** Disjoint brackets, each containing exactly one distinct root of [t]
    in [(lo, hi]], refined by bisection until at most [(hi − lo)/4096]
    wide.  Brackets are [(l, h]] with the root in the half-open
    interval. *)

val pp : Format.formatter -> t -> unit
