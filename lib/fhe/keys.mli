(** Key generation for RNS-CKKS.

    Evaluation (switching) keys follow the single-special-prime RNS design
    used by SEAL: a switching key from secret [s'] to secret [s] has one
    digit per ciphertext limb; digit [i] is a symmetric encryption of zero
    over the full key basis (all chain primes plus the special prime [P])
    whose [b] component carries [([P]_(q_i)) * s'] added into limb [i]
    only. Summing [digit_i * [d]_(q_i)] then equals [P * d * s'] plus
    per-digit noise, and dividing by [P] (mod-down) completes the switch.

    Rotation keys exist only for the Galois elements the caller asks for —
    the compiler's rotation-key pruning (paper Section 4.4, Figure 7)
    works by requesting exactly the analysed rotation set. *)

type switching_key = {
  digits : (Ace_rns.Rns_poly.t * Ace_rns.Rns_poly.t) array;
      (** per-digit (b, a), NTT domain, full key basis *)
  digits_shoup : (int array array * int array array) array;
      (** per-digit Shoup companions of every (b, a) key row, same row
          layout as [digits]; precomputed at keygen so the key-switch
          inner loop uses the two-multiply Shoup reduction (exact,
          bit-identical to the Barrett path it replaces) *)
}

type t = {
  context : Context.t;
  secret : Ace_rns.Rns_poly.t; (** ternary secret, NTT domain, key basis *)
  public : Ace_rns.Rns_poly.t * Ace_rns.Rns_poly.t; (** (b, a) at top ciphertext level *)
  relin : switching_key;
  galois : (int, switching_key) Hashtbl.t; (** keyed by Galois element *)
}

val generate :
  ?secret_hamming:int -> Context.t -> rng:Ace_util.Rng.t -> rotations:int list -> t
(** [rotations] lists slot-rotation amounts (positive = left); the
    conjugation key is always included. [secret_hamming] switches to a
    sparse ternary secret with that many nonzeros (required by exact
    bootstrapping, standard CKKS practice). *)

val add_rotation : t -> int -> unit
(** Generate (if absent) the key for one more rotation amount. Requires
    the secret key, so this models the client-side keygen round trip. *)

val galois_of_rotation : Context.t -> int -> int
(** The Galois element [5^k mod 2N] implementing a left rotation by [k]
    slots (negative [k] wraps). *)

val galois_conjugate : Context.t -> int
(** The element [2N - 1] implementing complex conjugation. *)

val rotation_key : t -> int -> switching_key
(** @raise Not_found if the rotation was never generated. *)

val available_rotations : t -> int list
(** The rotation steps (in [1 .. slots-1], ascending) whose Galois key
    exists. Diagnostic companion to {!rotation_key}: when a step is
    missing, this is the set that would have worked. *)

val switching_key_for : t -> s_from:Ace_rns.Rns_poly.t -> rng:Ace_util.Rng.t -> switching_key
(** Generic switch-to-[secret] key for an arbitrary source secret (used for
    relinearisation, rotations and bootstrapping transitions). *)

val switching_key_bytes : Context.t -> int
(** Bytes of one switching key (relinearisation or one rotation) in
    [ctx]: a polynomial pair over the extended basis per gadget digit. *)

val evaluation_key_bytes : t -> int
(** Total bytes of relinearisation plus rotation keys (Figure 7's
    "CKKS-Keys" quantity). *)

val num_rotation_keys : t -> int
