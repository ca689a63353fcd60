(** Execution backend: run a CKKS-IR function against the ACEfhe runtime.

    This plays the role of the paper's generated C program: every CKKS-IR
    node maps to one runtime library call (the generated C calls the same
    ACEfhe entry points; see {!C_backend} for the emitted source). The VM
    attributes wall-clock time to each node's provenance so the harness
    can reproduce Figure 6's Conv / Bootstrap / ReLU breakdown.

    Bootstrapping executes through {!Ace_fhe.Bootstrap}; the strategy is
    chosen by the caller (see DESIGN.md on the Exact/Refresh substitution). *)

type bootstrap_impl =
  node:int -> target_level:int -> Ace_fhe.Ciphertext.ct -> Ace_fhe.Ciphertext.ct
(** [node] is the IR node id of the bootstrap being executed. Implementations
    must derive any randomness from it (not from call order) so that a
    served, a local and a repeated run of one function produce
    bit-identical ciphertexts. *)

type t

val prepare :
  ?cache_plaintexts:bool ->
  keys:Ace_fhe.Keys.t -> bootstrap:bootstrap_impl -> Ace_ir.Irfunc.t -> t
(** Pre-resolves constants and builds the release plan
    ({!Sched.sequential}) every run of this VM follows. The function is
    taken as verified: {!Ace_driver.Pipeline.compile} and
    {!Ace_driver.Pipeline.restore} run the checkers, so this runs none.
    Plaintext masks are encoded on demand during
    execution (they depend on per-node scale/level). With [cache_plaintexts]
    (default false) each weight's encoded, NTT-domain plaintext is kept
    keyed by node id, so repeated {!run} calls on one VM — the
    {!Ace_driver.Pipeline.runtime} multi-inference path — never re-encode
    a weight; single-shot runs leave it off to keep peak memory at the
    live-range minimum. *)

val run :
  ?tag:(string * string) list -> t -> Ace_fhe.Ciphertext.ct list -> Ace_fhe.Ciphertext.ct list
(** Execute on encrypted inputs (one per function parameter), one node at a
    time in program order, releasing each value where {!Sched.free_after}
    of the prepared plan says it dies. [?tag] (default empty) is appended
    to every per-node telemetry span's args — the request-attribution hook:
    {!Ace_driver.Pipeline} passes the batch's request ids so a Chrome
    trace can be filtered per request.

    Every executed node credits its wall-clock time to its Figure 6 phase
    metric [phase.<p>] — ["bootstrap"] for bootstraps, else the NN
    operator of its origin: ["conv"], ["relu"], ["gemm"], ["pool"] or
    ["other"] — and feeds the cost-accountability metric [calib.<op>]
    with measured µs / {!Sched.node_cost} units, where [op] is
    {!Sched.fhe_op}, the same name as the [fhe.<op>] metric the
    evaluator times the call under (bookkeeping and epsilon-weight nodes
    are skipped). *)

val run_observed :
  ?tag:(string * string) list ->
  observe:(Ace_ir.Irfunc.node -> Ace_fhe.Ciphertext.ct -> unit) ->
  t -> Ace_fhe.Ciphertext.ct list -> Ace_fhe.Ciphertext.ct list
(** Like {!run}, but calls [observe node ct] on every node that produces a
    ciphertext, after the node executes. The hook behind
    {!Ace_driver.Debug_runner}'s per-layer mode: decrypt intermediates,
    compare against a cleartext shadow, log actual vs estimated error
    (paper Section 5 instrumentation). The observer runs on the VM's
    clock; keep it cheap unless you mean to pay for it. *)
