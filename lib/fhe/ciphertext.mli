(** Plaintext and ciphertext containers.

    Polynomials are kept in the NTT evaluation domain between operations;
    the evaluator converts on demand. The [scale] is the exact fixed-point
    scale of the encoded message (a float, because rescaling divides by
    primes that are only approximately powers of two); the level is implied
    by the limb count of the polynomials. A freshly multiplied ciphertext
    transiently has three polynomials until relinearization. *)

type pt = { poly : Ace_rns.Rns_poly.t; pt_scale : float }

type ct = { polys : Ace_rns.Rns_poly.t array; ct_scale : float }

val level : ct -> int
(** [num_limbs - 1]; level 0 means only [q0] remains. *)

val pt_level : pt -> int
val size : ct -> int
(** Number of polynomials: 2, or 3 before relinearization. *)

val degree : ct -> int
(** [size - 1]: the degree of the decryption polynomial in the secret.
    Degree-2 (3-component) ciphertexts flow through additive operations
    under lazy relinearisation. *)

val scale_of : ct -> float
val bytes : ct -> int

val poly_bytes : ring_degree:int -> limbs:int -> int
(** Memory of one RNS polynomial: one 8-byte word per coefficient per limb. *)

val ciphertext_bytes : ring_degree:int -> limbs:int -> int
(** Memory of a two-polynomial ciphertext. *)

val release : ct -> unit
(** Return every polynomial's rows to the limb pool. Only the last owner
    of a dead ciphertext may call this (the VM does, at the node computed
    by [Sched]'s release sets); no-op on shared/unpooled polynomials. *)

val mark_shared : ct -> unit
(** The ciphertext's polynomials are now visible through another value
    (caller-held input, downscaled view, extracted batch element):
    exclude them from recycling. *)

val release_pt : pt -> unit
(** As {!release}, for a plaintext the caller owns (uncached encodings). *)

val pp : Format.formatter -> ct -> unit
