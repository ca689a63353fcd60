(** Static validator of the CKKS IR's scale and level annotations.

    An abstract interpreter over the (scale, modulus level, limb count)
    lattice: it re-derives every node's annotations from its operands'
    using the CKKS algebra — additions need matching scales and levels, a
    multiplication's scale is the product, rescale divides by the dropped
    prime, mod-switch keeps the scale, bootstrap resets to Delta — and
    compares them with what the lowering recorded. It also rejects
    rotation steps absent from the keygen plan, ill-formed hoisted
    [C_rotate_batch] access, bootstrap targets outside the chain,
    slot-capacity overflows and degree-2 returns. A pass that breaks the
    discipline is caught here rather than as garbage decrypts. *)

exception Bad_scales of string

val diagnose :
  pass:string ->
  ?plan:Keygen_plan.plan ->
  Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  Ace_ir.Diagnostic.t list
(** Every violation, in program order, each naming its node. Without
    [plan] rotation keys are not checked. Assumes {!Ace_ir.Verify.well_formed}
    passed; never raises on corrupted annotations. *)

val check : Ace_fhe.Context.t -> Ace_ir.Irfunc.t -> unit
(** {!diagnose} without a plan, failing fast.
    @raise Bad_scales with the first diagnostic, which names its node.
    @raise Invalid_argument on a function that is not at CKKS level. *)

val max_encode_bits : Ace_ir.Irfunc.t -> float
(** Largest log2 encode scale in the function; parameter selection uses it
    to confirm coefficients stay within the word-size budget. *)
