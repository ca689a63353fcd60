(* Per-layer rows shared by the workloads. Each row is measured from
   outside the program: a span around a call into the layer's public
   entry point, or a number the program already records (level_seconds,
   Stats.of_compiled, Limb_pool.stats, the phase.* metrics). *)

open Common
module Pipeline = Ace_driver.Pipeline
module Level = Ace_ir.Level
module Fhe = Ace_fhe
module Keygen_plan = Ace_ckks_ir.Keygen_plan

(* ---------- compile attribution ---------- *)

type compile_run = {
  wall : float;  (** wall time of the Pipeline.compile call *)
  levels : (Level.t * float) list;  (** the level_seconds it returned *)
  other : float;  (** the other_seconds it returned *)
}

let compile ?id ?batch nn =
  let c, wall =
    Telemetry.timed ~cat:"bench" ~args:(id_args id) "pipeline.compile" (fun () ->
        Pipeline.compile ?batch Pipeline.ace nn)
  in
  (c, { wall; levels = c.Pipeline.level_seconds; other = c.Pipeline.other_seconds })

let level_rows =
  [
    (Level.Nn, "nn.passes_s");
    (Level.Vector, "vector.lower_s");
    (Level.Sihe, "sihe.lower_s");
    (Level.Ckks, "ckks_ir.lower_s");
    (Level.Poly, "poly_ir.lower_s");
  ]

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* The level rows, compile.other_s and compile.unattributed_s sum to the
   compile wall time of [runs] exactly: the last row is the remainder. *)
let compile_rows runs =
  let level_total = ref 0.0 in
  List.iter
    (fun (lvl, name) ->
      let s = sum (fun r -> try List.assoc lvl r.levels with Not_found -> 0.0) runs in
      level_total := !level_total +. s;
      layer name "s" s)
    level_rows;
  let other = sum (fun r -> r.other) runs in
  layer "compile.other_s" "s" other;
  layer "compile.unattributed_s" "s" (sum (fun r -> r.wall) runs -. !level_total -. other)

(* One Scale_check.check and one Ir.Verify.verify on the compiled CKKS
   function, each in its own span. *)
let verify_probe ~id (c : Pipeline.compiled) =
  let sc =
    probe ~reps:1 ("verify.scale_check." ^ id) (fun () ->
        Ace_ckks_ir.Scale_check.check c.Pipeline.context c.Pipeline.ckks)
  in
  let iv = probe ~reps:1 ("verify.ir_verify." ^ id) (fun () -> Ace_ir.Verify.verify c.Pipeline.ckks) in
  (sc, iv)

let verify_rows probes =
  layer "verify.scale_check_s" "s" (sum fst probes);
  layer "verify.ir_verify_s" "s" (sum snd probes)

(* IR size after each level, the CKKS schedule and the key plan, read
   from Stats.of_compiled and the compiled record. *)
let program_counts (c : Pipeline.compiled) =
  let st = Ace_driver.Stats.of_compiled c in
  let nodes lvl = float_of_int (List.assoc lvl st.Ace_driver.Stats.nodes_per_level) in
  let n x = float_of_int x in
  [
    ("vector.nodes", "count", nodes Level.Vector);
    ("sihe.nodes", "count", nodes Level.Sihe);
    ("ckks_ir.nodes", "count", nodes Level.Ckks);
    ("codegen.c_bytes", "bytes", n (String.length c.Pipeline.c_source));
    ("ckks_ir.rotations", "count", n st.rotations);
    ("ckks_ir.ct_mults", "count", n st.ct_mults);
    ("ckks_ir.pt_mults", "count", n st.pt_mults);
    ("ckks_ir.rescales", "count", n st.rescales);
    ("ckks_ir.relins", "count", n st.relins);
    ("ckks_ir.bootstraps", "count", n st.bootstraps);
    ("ckks_ir.rotation_keys", "count", n (Keygen_plan.key_count c.Pipeline.key_plan));
    ( "ckks_ir.eval_key_bytes",
      "bytes",
      n (Keygen_plan.evaluation_key_bytes c.Pipeline.context c.Pipeline.key_plan) );
  ]

(* Rows of several programs, summed name by name. *)
let program_rows counts =
  match counts with
  | [] -> invalid_arg "program_rows: no programs"
  | first :: _ ->
    List.iteri
      (fun i (name, unit_, _) ->
        layer name unit_ (sum (fun rows -> let _, _, v = List.nth rows i in v) counts))
      first

(* ---------- runtime ---------- *)

type op_costs = {
  add : float;
  mul_plain : float;
  mul_relin : float;
  rotate : float;
  rescale : float;
  bootstrap : float;
}

(* Run [f] with the program's flight recorder on and return the median
   level of the ciphertexts its evaluator operations produced. The
   recorder slows [f] down, so [f] is an execution of its own that no
   timing includes. *)
let median_op_level f =
  Telemetry.reset_flight ();
  Telemetry.set_flight true;
  Fun.protect ~finally:(fun () -> Telemetry.set_flight false) (fun () -> ignore (f ()));
  let levels = List.map (fun r -> float_of_int r.Telemetry.fl_level) (Telemetry.flight_records ()) in
  Telemetry.reset_flight ();
  if levels = [] then 1 else int_of_float (median levels)

(* The evaluator's primitives, timed on the workload's own context and
   keys at [level], the median level of the program's own operations
   (at least 1, so that a rescale is possible). The rotation step is one
   the program really uses, so its key exists. *)
let fhe_rows ~seed ~level (c : Pipeline.compiled) keys =
  let ctx = c.Pipeline.context in
  let level = max 1 level in
  let scale = Fhe.Context.scale ctx in
  let rng = Ace_util.Rng.create seed in
  let values = Array.init (Fhe.Context.slots ctx) (fun i -> float_of_int (i mod 7) /. 8.0) in
  let encode () = Fhe.Encoder.encode ctx ~level ~scale values in
  let pt = encode () in
  let a = Fhe.Eval.encrypt keys ~rng pt in
  let b = Fhe.Eval.encrypt keys ~rng pt in
  let step =
    match c.Pipeline.key_plan.Keygen_plan.rotation_steps with s :: _ -> s | [] -> 1
  in
  let us s = s *. 1e6 in
  let costs =
    {
      add = probe "fhe.add" (fun () -> Fhe.Eval.add a b);
      mul_plain = probe "fhe.mul_plain" (fun () -> Fhe.Eval.mul_plain a pt);
      mul_relin = probe "fhe.mul_relin" (fun () -> Fhe.Eval.mul keys a b);
      rotate = probe "fhe.rotate" (fun () -> Fhe.Eval.rotate keys a step);
      rescale = probe "fhe.rescale" (fun () -> Fhe.Eval.rescale a);
      bootstrap =
        probe ~reps:3 "fhe.bootstrap" (fun () ->
            Fhe.Bootstrap.refresh keys ~rng ~target_level:level a);
    }
  in
  layer "fhe.add_us" "us" (us costs.add);
  layer "fhe.mul_plain_us" "us" (us costs.mul_plain);
  layer "fhe.mul_relin_us" "us" (us costs.mul_relin);
  layer "fhe.rotate_us" "us" (us costs.rotate);
  layer "fhe.rescale_us" "us" (us costs.rescale);
  layer "fhe.encode_us" "us" (us (probe "fhe.encode" encode));
  layer "fhe.bootstrap_ms" "ms" (costs.bootstrap *. 1e3);
  let plan = Ace_rns.Crt.plan (Fhe.Context.crt ctx) 0 in
  let n = Fhe.Context.ring_degree ctx in
  let q = Ace_rns.Ntt.modulus plan in
  let poly = Array.init n (fun i -> (i * 2654435761) mod q) in
  layer "rns.ntt_forward_us" "us"
    (us (probe ~reps:21 "rns.ntt_forward" (fun () -> Ace_rns.Ntt.forward plan poly)));
  costs

(* Run time the probed primitives do not explain: the measured execution
   minus each scheduled op count times its probed cost. Probes run at one
   level, so ops above it are under-priced and ops below it over-priced;
   the residual can be negative. *)
let vm_residual (c : Pipeline.compiled) costs ~run_s =
  let st = Ace_driver.Stats.of_compiled c in
  let adds =
    Ace_ir.Irfunc.fold c.Pipeline.ckks ~init:0 ~f:(fun acc n ->
        match n.Ace_ir.Irfunc.op with Ace_ir.Op.C_add | Ace_ir.Op.C_sub -> acc + 1 | _ -> acc)
  in
  let n x = float_of_int x in
  let explained =
    (n adds *. costs.add) +. (n st.pt_mults *. costs.mul_plain)
    +. (n st.ct_mults *. costs.mul_relin) +. (n st.rotations *. costs.rotate)
    +. (n st.rescales *. costs.rescale) +. (n st.bootstraps *. costs.bootstrap)
  in
  layer "codegen.vm_residual_s" "s" (run_s -. explained)

(* Counters the program keeps, read as deltas around encrypted
   executions: the Fig. 6 phase.* metrics, the limb pool and the GC. *)
type run_counters = {
  window : Telemetry.window;
  pool0 : Ace_rns.Limb_pool.stats;
  mutable major_words : float;
  mutable major_collections : int;
  mutable runs : int;
}

let start_counters () =
  {
    window = Telemetry.baseline ();
    pool0 = Ace_rns.Limb_pool.stats ();
    major_words = 0.0;
    major_collections = 0;
    runs = 0;
  }

(* Gc.quick_stat deltas around one execution. *)
let counted rc f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  rc.major_words <- rc.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  rc.major_collections <- rc.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  rc.runs <- rc.runs + 1;
  v

let counter_rows rc =
  let snap = Telemetry.snapshot_since rc.window in
  let phase name =
    match Telemetry.find_stats snap ("phase." ^ name) with
    | Some st -> st.Telemetry.st_total /. float_of_int rc.runs
    | None -> 0.0
  in
  layer "vm.phase.conv_s" "s" (phase "conv");
  layer "vm.phase.relu_s" "s" (phase "relu");
  layer "vm.phase.bootstrap_s" "s" (phase "bootstrap");
  let p1 = Ace_rns.Limb_pool.stats () in
  let hits = p1.slab_hits - rc.pool0.slab_hits in
  let misses = p1.slab_misses - rc.pool0.slab_misses in
  layer "rns.slab_hit_ratio" "ratio"
    (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
  layer "gc.major_words_per_infer" "words" (rc.major_words /. float_of_int rc.runs);
  layer "gc.major_collections_per_infer" "count"
    (float_of_int rc.major_collections /. float_of_int rc.runs)

(* ---------- rows a workload does not exercise ---------- *)

let absent_runtime () =
  absent
    [
      ("fhe.add_us", "us");
      ("fhe.mul_plain_us", "us");
      ("fhe.mul_relin_us", "us");
      ("fhe.rotate_us", "us");
      ("fhe.rescale_us", "us");
      ("fhe.encode_us", "us");
      ("fhe.bootstrap_ms", "ms");
      ("rns.ntt_forward_us", "us");
      ("codegen.vm_residual_s", "s");
      ("vm.phase.conv_s", "s");
      ("vm.phase.relu_s", "s");
      ("vm.phase.bootstrap_s", "s");
      ("rns.slab_hit_ratio", "ratio");
      ("gc.major_words_per_infer", "words");
      ("gc.major_collections_per_infer", "count");
      ("driver.first_infer_s", "s");
    ]

let absent_serve () =
  absent
    [
      ("serve.exec_ms", "ms");
      ("fhe.ct_encode_us", "us");
      ("fhe.ct_decode_us", "us");
      ("serve.frame_encode_us", "us");
      ("serve.frame_decode_us", "us");
      ("serve.ct_bytes", "bytes");
      ("serve.sat.requests_per_exec", "ratio");
      ("serve.low.requests_per_exec", "ratio");
      ("serve.high.requests_per_exec", "ratio");
      ("serve.rejected", "count");
      ("serve.wait_p50_ms", "ms");
      ("serve.queue_depth_p99", "count");
      ("serve.daemon_ready_s", "s");
      ("serve.put_keys_s", "s");
      ("loadgen.late_p99_ms", "ms");
    ]
