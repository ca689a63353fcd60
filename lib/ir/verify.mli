(** IR verifier.

    Checks structural well-formedness (def-before-use, single assignment,
    arities, returns set), level consistency (a function at level L
    contains only L-level and common opcodes) and per-opcode typing rules
    (e.g. [SIHE.mul]'s first operand is a ciphertext, its second a
    ciphertext or plaintext, and the result type matches; Conv weights
    have the declared shape). {!well_formed} collects every violation;
    {!verify} is the same check failing on the first. Every pass is
    expected to preserve it; the pass manager re-checks after each pass
    when enabled. *)

exception Ill_formed of string

val well_formed : pass:string -> Irfunc.t -> Diagnostic.t list
(** Every structural and typing violation, in program order, each naming
    its node; [pass] names the stage that produced the function. Never
    raises on a corrupted function. *)

val verify : Irfunc.t -> unit
(** @raise Ill_formed with {!well_formed}'s first diagnostic. *)

val verify_result : Irfunc.t -> (unit, string) result
