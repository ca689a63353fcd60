(** Release plan of a CKKS-IR function, and the cost model the runtime
    holds accountable.

    A compiled function is an SSA dataflow graph in topological order, and
    the executor ({!Vm.run}) runs its nodes in that order, as the paper's
    generated C program does. What remains to plan is when each value
    dies: {!sequential} computes, once per prepared VM, the list of values
    released after each node, and {!check} is the rule the verifier holds
    that plan to. The executor and the verifier share this one object.

    Bootstrap randomness is keyed by IR node id (see
    {!Ace_fhe.Bootstrap.refresh_impl}), so the plan places no constraint on
    bootstraps beyond dataflow. *)

type t

val node_cost : Ace_ir.Irfunc.node -> float
(** The cost model itself: estimated work of one node in abstract units
    (1.0 ~ one limb of pointwise work, i.e. one O(N) pass over a residue
    row). Pure function of the node's op and level annotation. Exposed so
    the executor can hold the prediction accountable against measured
    wall-clock (the [calib.*] telemetry metrics) and so the serving
    daemon can price a request before running it. *)

val fhe_op : Ace_ir.Irfunc.t -> Ace_ir.Irfunc.node -> string option
(** The op vocabulary: [Some op] when the node's evaluator call is timed
    as the telemetry metric [fhe.<op>] — ["add"], ["mult"] (a [C_mul]
    whose second operand is a ciphertext), ["mult_plain"], ["relinearize"],
    ["rotate"] (single, hoisted batch, conjugate), ["rescale"], ["encode"]
    or ["bootstrap"] — and [None] for bookkeeping ops that make no timed
    call (negation, mod switch, downscale, batch views, cleartext ops).
    The executor's calibration metric for a node is [calib.<op>]. *)

val sequential : Ace_ir.Irfunc.t -> t
(** The release plan of program-order execution: each value is released
    right after its last consumer runs; returns and unused values are
    never released. A [C_batch_get] view owns nothing, so its rotation
    batch lives until the last consumer of any of its views, and a
    returned view pins the batch. An unused view extends nothing.
    O(nodes + edges). *)

val free_after : t -> int array array
(** [(free_after t).(i)] lists the node ids whose value is dead once node
    [i] has run. The array is the plan's own: mutating it changes the plan
    (the verifier's mutation tests build broken plans that way). *)

val check : Ace_ir.Irfunc.t -> t -> unit
(** Validate the release lists against the function, assuming program
    order (whose def-before-use the verifier's [well_formed] pass
    checks): one list per node, no value released twice, no return
    released, no value released before a node that reads it directly or
    through a [C_batch_get] view, and no batch released while one of its
    views is returned. Raises [Failure] naming the offending node
    otherwise. *)
