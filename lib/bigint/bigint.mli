(** Arbitrary-precision signed integers.

    The sealed build environment provides no [zarith]; this module supplies
    the exact integer arithmetic on which the whole reproduction rests.
    Bottleneck decompositions compare {% α %}-ratios of vertex sets, i.e.
    ratios of integer subset sums; a single mis-ordered comparison yields a
    wrong decomposition, so all comparisons must be exact.

    Representation: a Zarith-style fixnum fast path — values that fit a
    native [int] are stored immediate ([Small]), everything else as a sign
    and little-endian magnitude in base [10^9] limbs ([Big]).  The
    representation is canonical (in-range values are always immediate), so
    structural equality and hashing remain semantic.  Arithmetic on two
    immediate values runs on native ints with explicit overflow checks and
    falls back to the limb algorithms exactly when the native computation
    would overflow.  All operations are purely functional. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Construction and destruction} *)

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val to_float : t -> float
(** Nearest float; large values lose precision, never raise. *)

val of_string : string -> t
(** Accepts an optional sign followed by decimal digits, with optional [_]
    separators.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val pred : t -> t

val mul : t -> t -> t
(** Schoolbook below a limb threshold, Karatsuba above it. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and [r]
    carrying the sign of [a] (truncated division, as [Stdlib.( / )]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative gcd; [gcd zero zero = zero].  Native Euclid when both
    operands are immediate, binary (Stein) gcd on magnitudes otherwise. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0].
    @raise Invalid_argument on negative exponent. *)

val bits_bound : t -> int
(** A [k] with [|x| < 2^k]: the exact bit length of [|x|] for values
    that fit a native [int], and at most about 3.5% above it (one
    base-[10^9] limb spans [2^30]) otherwise. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

(** {1 Test-only hooks}

    The [slow_*] functions route unconditionally through the limb
    algorithms (converting immediates to limb form first) and return
    canonical results.  They exist so property tests can check the
    fixnum fast paths against the limb paths on the same inputs; they
    are not part of the stable API and must not be used elsewhere. *)

module For_testing : sig
  val is_small : t -> bool
  (** Whether the value is stored immediate.  Canonical-form invariant:
      this must agree with [to_int _ <> None]. *)

  val slow_add : t -> t -> t
  val slow_sub : t -> t -> t
  val slow_mul : t -> t -> t
  val slow_divmod : t -> t -> t * t
  val slow_compare : t -> t -> int
  val slow_gcd : t -> t -> t
end
