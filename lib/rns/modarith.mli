(** Word-sized modular arithmetic.

    All moduli in this code base are odd primes strictly below 2^31, so the
    product of two reduced residues fits in OCaml's 63-bit native int and no
    multi-word reduction is ever needed. This is the word-size substitution
    documented in DESIGN.md (the paper's ACEfhe uses 64-bit RNS limbs). *)

val max_modulus_bits : int
(** Largest supported modulus width (31). *)

(** {1 Branch-free corrections}

    Every conditional correction in the RNS kernels goes through these:
    they compile to a subtract, a shift, a mask and an add, with no
    data-dependent branch (ocamlopt emits no conditional move). Each one
    returns exactly what the [if]-form in its comment returns, for any
    argument of magnitude below [2^61]. *)

val csub : int -> int -> int
(** [csub x m] is [if x >= m then x - m else x]: maps [\[0, 2m)] onto
    [\[0, m)]. *)

val cadd : int -> int -> int
(** [cadd d m] is [if d < 0 then d + m else d]: maps [\[-m, m)] onto
    [\[0, m)]. *)

val center : int -> half:int -> int -> int
(** [center x ~half m] is [if x > half then x - m else x]; with
    [half = m / 2] it is {!centered} with the halving hoisted out of a
    loop. *)

(** {1 Residue arithmetic} *)

val add : int -> int -> modulus:int -> int
(** [add a b] is [csub (a + b) modulus]: canonical for [a + b] in
    [\[0, 2m)]. *)

val sub : int -> int -> modulus:int -> int
(** [sub a b] is [cadd (a - b) modulus]: canonical for [a - b] in
    [\[-m, m)]. *)

val mul : int -> int -> modulus:int -> int

val neg : int -> modulus:int -> int
(** [neg a] is [if a = 0 then 0 else modulus - a], for every [a]. *)

val pow : int -> int -> modulus:int -> int
(** [pow b e ~modulus] is [b^e mod modulus] by square-and-multiply;
    [e >= 0]. *)

val inv : int -> modulus:int -> int
(** Modular inverse for prime modulus (Fermat). @raise Invalid_argument on
    [0]. *)

val reduce : int -> modulus:int -> int
(** Reduce an arbitrary native int (possibly negative) into [\[0, m)]. *)

val centered : int -> modulus:int -> int
(** Lift a residue to the centered representative in [(-m/2, m/2]]. *)
