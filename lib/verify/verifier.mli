(** Cross-level static IR verifier (the correctness backstop).

    The five-level IR exists so every lowering can be independently
    validated; this module composes the per-level checkers into the one
    check {!Ace_driver.Pipeline.compile} runs after every stage and
    {!Ace_driver.Pipeline.restore} runs on every loaded artifact:
    {!Ace_ir.Verify.well_formed} (def-before-use, single assignment,
    arity, per-opcode typing, level discipline), then for a CKKS function
    {!Ace_ckks_ir.Scale_check.diagnose} (the (scale, level, limbs)
    abstract interpretation plus keygen-plan, bundle and slot checks),
    then {!schedule} on {!Ace_codegen.Sched.sequential}, the release plan
    the VM executes. {!poly} checks the POLY level.

    All checks collect diagnostics instead of failing fast, and a
    corrupted program must never crash the verifier: internal exceptions
    are converted into diagnostics naming the node under scrutiny. *)

exception Rejected of Ace_ir.Diagnostic.t list
(** Raised by the [_exn] entry points; carries every diagnostic found. *)

val schedule :
  pass:string -> Ace_ir.Irfunc.t -> Ace_codegen.Sched.t -> Ace_ir.Diagnostic.t list
(** {!Ace_codegen.Sched.check} — no release before a direct or
    through-view read, no double or return release — with failures
    converted to [Schedule_violation] diagnostics naming the offending
    node. *)

val poly : pass:string -> Ace_poly_ir.Poly_ir.func -> Ace_ir.Diagnostic.t list
(** POLY-level well-formedness: every [t<id>]-named operand of a statement
    must be defined (or declared) by an earlier statement. *)

val function_checks :
  pass:string ->
  ?plan:Ace_ckks_ir.Keygen_plan.plan ->
  ?context:Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  Ace_ir.Diagnostic.t list
(** [well_formed], then — for a structurally sound CKKS function with a
    context — the abstract interpretation and the VM's release plan,
    stopping at the first checker that reports. *)

val check_exn :
  pass:string ->
  ?plan:Ace_ckks_ir.Keygen_plan.plan ->
  ?context:Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  unit
(** {!function_checks}; @raise Rejected when any diagnostic is found. *)

val poly_exn : pass:string -> Ace_poly_ir.Poly_ir.func -> unit

val errors_to_string : Ace_ir.Diagnostic.t list -> string
