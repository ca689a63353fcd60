(* Driver-level tests: pipeline assembly, strategies, protocol helpers,
   statistics, models, datasets. *)
module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset

module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Rng = Ace_util.Rng

let gemv () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 16 |];
  Builder.init_normal b "w" [| 4; 16 |] ~seed:3 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let test_slots_needed () =
  let nn = Import.import (gemv ()) in
  Alcotest.(check int) "gemv slots" 16 (Pipeline.slots_needed nn);
  let spec = Resnet.resnet20 in
  let r = Resnet.build_calibrated spec in
  (* base 4 channels -> stage 3 has 16 channels, 64-slot blocks *)
  Alcotest.(check int) "resnet slots" (16 * 64) (Pipeline.slots_needed r)

let test_level_timings_recorded () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv ())) in
  Alcotest.(check int) "five levels" 5 (List.length c.Pipeline.level_seconds);
  List.iter
    (fun (_, s) -> if s < 0.0 then Alcotest.fail "negative time")
    c.Pipeline.level_seconds

(* The verifier stages are the compile time outside the five lowerings:
   traced as compile.verify spans and summed into [other_seconds]. No
   weights file is emitted, so there is no compile.other span. *)
let test_compile_verify_span () =
  let module T = Ace_telemetry.Telemetry in
  let nn = Import.import (gemv ()) in
  T.reset_trace ();
  T.set_tracing true;
  let t0 = Unix.gettimeofday () in
  let c = Fun.protect ~finally:(fun () -> T.set_tracing false) (fun () ->
      Pipeline.compile Pipeline.ace nn)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let spans name = List.filter (fun e -> e.T.ev_name = name) (T.events ()) in
  Alcotest.(check bool) "compile.verify span" true (spans "compile.verify" <> []);
  Alcotest.(check int) "no compile.other span" 0 (List.length (spans "compile.other"));
  let other = c.Pipeline.other_seconds in
  Alcotest.(check bool)
    (Printf.sprintf "0 <= other_seconds %.4f <= wall %.4f" other wall)
    true
    (other >= 0.0 && other <= wall)

let test_stats_shape () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv ())) in
  let s = Stats.of_compiled c in
  Alcotest.(check bool) "rotations counted" true (s.Stats.rotations > 0);
  Alcotest.(check bool) "pt mults counted" true (s.Stats.pt_mults > 0);
  Alcotest.(check int) "no bootstraps in a depth-1 model" 0 s.Stats.bootstraps;
  Alcotest.(check bool) "consts counted" true (s.Stats.const_floats > 0);
  Alcotest.(check bool) "c lines counted" true (s.Stats.c_lines > 10)

let test_strategy_flags () =
  Alcotest.(check bool) "ace prunes" true Pipeline.ace.Pipeline.pruned_keys;
  Alcotest.(check bool) "ace regroups" true Pipeline.ace.Pipeline.conv_regroup;
  Alcotest.(check bool) "expert direct form" false Pipeline.expert.Pipeline.conv_regroup;
  Alcotest.(check bool) "library uses pow2 keys" false
    Pipeline.library_default.Pipeline.pruned_keys;
  Alcotest.(check bool) "expert tower deeper" true
    (Pipeline.expert.Pipeline.chain_depth >= Pipeline.ace.Pipeline.chain_depth)

let test_protocol_roundtrip () =
  let nn = Import.import (gemv ()) in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 6 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  let ct' = Pipeline.run_encrypted c keys ~seed:8 ct in
  let y = Pipeline.decrypt_output c keys ct' in
  Alcotest.(check int) "output length" 4 (Array.length y);
  let expect = Ace_nn.Nn_interp.run1 nn x in
  Array.iteri
    (fun i v ->
      if abs_float (v -. expect.(i)) > 0.02 then Alcotest.failf "slot %d: %f vs %f" i v expect.(i))
    y

let test_library_default_hops_exceed_expert () =
  let a = Pipeline.compile Pipeline.expert (Import.import (gemv ())) in
  let l = Pipeline.compile Pipeline.library_default (Import.import (gemv ())) in
  let hops = Ace_expert.Expert_infer.rotation_hops in
  if hops l <= hops a then
    Alcotest.failf "binary-hop decomposition should add rotations: %d vs %d" (hops l) (hops a)

let test_compile_rejects_small_context () =
  let nn = Import.import (gemv ()) in
  let ctx = Ace_ckks_ir.Param_select.execution_context ~slots:8 () in
  try
    ignore (Pipeline.compile ~context:ctx Pipeline.ace nn);
    Alcotest.fail "expected slot-capacity rejection"
  with Invalid_argument _ -> ()

(* --- models & datasets --- *)

let test_resnet_specs () =
  List.iter
    (fun spec ->
      Alcotest.(check int) "6n+2" 0 ((spec.Resnet.depth - 2) mod 6);
      Alcotest.(check bool) "classes sane" true
        (spec.Resnet.classes = 10 || spec.Resnet.classes = 100))
    Resnet.all_paper_models;
  Alcotest.(check int) "six models" 6 (List.length Resnet.all_paper_models)

let test_resnet_structure_counts () =
  let spec = Resnet.resnet20 in
  let g = Resnet.build (Resnet.resnet20) in
  let convs =
    List.length (List.filter (fun (n : Ace_onnx.Model.node) -> n.Ace_onnx.Model.n_op = "Conv") g.Ace_onnx.Model.g_nodes)
  in
  (* 1 stem + 18 block convs + 2 downsample shortcuts *)
  Alcotest.(check int) "conv count" 21 convs;
  Alcotest.(check int) "blocks per stage" 3 (Resnet.blocks_per_stage spec)

let test_dataset_determinism_and_labels () =
  let d1 = Dataset.generate ~classes:10 ~image_size:8 ~count:16 ~noise:0.1 ~seed:3 in
  let d2 = Dataset.generate ~classes:10 ~image_size:8 ~count:16 ~noise:0.1 ~seed:3 in
  Alcotest.(check bool) "deterministic" true (d1.Dataset.images = d2.Dataset.images);
  Array.iter
    (fun l -> if l < 0 || l >= 10 then Alcotest.fail "label out of range")
    d1.Dataset.labels;
  Array.iter
    (Array.iter (fun v -> if v < 0.0 || v > 1.0 then Alcotest.fail "pixel out of range"))
    d1.Dataset.images

let test_dataset_is_separable_in_clear () =
  (* Prototypes plus small noise should be distinguishable by a nearest
     prototype rule; sanity for the Table 11 protocol. *)
  let d = Dataset.generate ~classes:4 ~image_size:8 ~count:32 ~noise:0.05 ~seed:9 in
  let protos = Dataset.generate ~classes:4 ~image_size:8 ~count:0 ~noise:0.0 ~seed:9 in
  ignore protos;
  (* nearest-neighbour against class means of the sample itself *)
  let dims = 3 * 8 * 8 in
  let means = Array.make_matrix 4 dims 0.0 in
  let counts = Array.make 4 0 in
  Array.iteri
    (fun i img ->
      let l = d.Dataset.labels.(i) in
      counts.(l) <- counts.(l) + 1;
      Array.iteri (fun j v -> means.(l).(j) <- means.(l).(j) +. v) img)
    d.Dataset.images;
  Array.iteri
    (fun l c -> if c > 0 then Array.iteri (fun j v -> means.(l).(j) <- v /. float_of_int c) means.(l))
    counts;
  let correct = ref 0 in
  Array.iteri
    (fun i img ->
      let dist m =
        let acc = ref 0.0 in
        Array.iteri (fun j v -> acc := !acc +. ((v -. m.(j)) ** 2.0)) img;
        !acc
      in
      let best = ref 0 in
      for l = 1 to 3 do
        if dist means.(l) < dist means.(!best) then best := l
      done;
      if !best = d.Dataset.labels.(i) then incr correct)
    d.Dataset.images;
  if !correct < 28 then Alcotest.failf "dataset barely separable: %d/32" !correct

let test_expert_module_wrappers () =
  let nn = Import.import (gemv ()) in
  let c = Ace_expert.Expert_infer.compile nn in
  Alcotest.(check string) "strategy name" "Expert"
    c.Pipeline.strategy.Pipeline.strategy_name;
  Alcotest.(check bool) "hops positive" true (Ace_expert.Expert_infer.rotation_hops c > 0)

(* --- smooth activations through the whole stack --- *)

let mlp_graph () =
  let b = Builder.create "mlp-test" in
  Builder.input b "x" [| 8 |];
  Builder.init_normal b "w1" [| 8; 8 |] ~seed:21 ~std:0.3;
  Builder.init_normal b "b1" [| 8 |] ~seed:22 ~std:0.1;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w1"; "b1" ] "h";
  Builder.node b ~op:"Sigmoid" ~inputs:[ "h" ] "a";
  Builder.init_normal b "w2" [| 4; 8 |] ~seed:23 ~std:0.3;
  Builder.init_normal b "b2" [| 4 |] ~seed:24 ~std:0.1;
  Builder.node b ~op:"Gemm" ~inputs:[ "a"; "w2"; "b2" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let test_sigmoid_nn_semantics () =
  let nn = Import.import (mlp_graph ()) in
  let x = Array.make 8 0.0 in
  let out = Ace_nn.Nn_interp.run1 nn x in
  Alcotest.(check int) "outputs" 4 (Array.length out)

let test_encrypted_mlp_sigmoid () =
  let nn = Import.import (mlp_graph ()) in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:25 in
  let rng = Rng.create 26 in
  let x = Array.init 8 (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let expect = Ace_nn.Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:27 x in
  Array.iteri
    (fun i v ->
      if abs_float (v -. expect.(i)) > 0.05 then
        Alcotest.failf "sigmoid MLP slot %d: %f vs %f" i v expect.(i))
    got

let test_tanh_lowering_accuracy () =
  (* The registry's minimax tanh must be accurate on the approx domain. *)
  let f = Ace_ir.Irfunc.create ~name:"t" ~level:Ace_ir.Level.Vector
      ~params:[ ("x", Ace_ir.Types.Vec 8) ] in
  let n = Ace_ir.Irfunc.add f (Ace_ir.Op.V_nonlinear "tanh")
      [| Ace_ir.Irfunc.param f 0 |] (Ace_ir.Types.Vec 8) in
  Ace_ir.Irfunc.set_returns f [ n ];
  let sf = Ace_sihe.Lower_vec.lower Ace_sihe.Lower_vec.default f in
  Ace_ir.Verify.verify sf;
  let xs = Array.init 8 (fun i -> -4.0 +. float_of_int i) in
  let got = Ace_sihe.Sihe_interp.run1 sf xs in
  Array.iteri
    (fun i v ->
      (* degree-13 minimax on [-5,5]: sup error ~1e-2, concentrated at the
         saturated ends *)
      if abs_float (v -. tanh xs.(i)) > 2e-2 then
        Alcotest.failf "tanh approx at %.1f: %f vs %f" xs.(i) v (tanh xs.(i)))
    got

let test_unknown_activation_still_rejected () =
  let f = Ace_ir.Irfunc.create ~name:"t" ~level:Ace_ir.Level.Vector
      ~params:[ ("x", Ace_ir.Types.Vec 8) ] in
  let n = Ace_ir.Irfunc.add f (Ace_ir.Op.V_nonlinear "gelu")
      [| Ace_ir.Irfunc.param f 0 |] (Ace_ir.Types.Vec 8) in
  Ace_ir.Irfunc.set_returns f [ n ];
  try
    ignore (Ace_sihe.Lower_vec.lower Ace_sihe.Lower_vec.default f);
    Alcotest.fail "expected Unsupported"
  with Ace_sihe.Lower_vec.Unsupported _ -> ()

let test_debug_runner_separates_errors () =
  let nn = Import.import (mlp_graph ()) in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:31 in
  let rng = Rng.create 32 in
  let x = Array.init 8 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let r = Ace_driver.Debug_runner.run c keys ~seed:33 x in
  (* The lowering is exact in cleartext; all error is approximation+noise. *)
  if r.Ace_driver.Debug_runner.layout_error > 1e-9 then
    Alcotest.failf "layout error %.3e" r.Ace_driver.Debug_runner.layout_error;
  if r.Ace_driver.Debug_runner.crypto_error > 0.05 then
    Alcotest.failf "crypto error %.3e" r.Ace_driver.Debug_runner.crypto_error


let () =
  Alcotest.run "driver"
    [
      ( "pipeline",
        [
          Alcotest.test_case "slots needed" `Quick test_slots_needed;
          Alcotest.test_case "level timings" `Quick test_level_timings_recorded;
          Alcotest.test_case "compile.verify span" `Quick test_compile_verify_span;
          Alcotest.test_case "stats" `Quick test_stats_shape;
          Alcotest.test_case "strategy flags" `Quick test_strategy_flags;
          Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "library hops" `Quick test_library_default_hops_exceed_expert;
          Alcotest.test_case "small context rejected" `Quick test_compile_rejects_small_context;
        ] );
      ( "activations",
        [
          Alcotest.test_case "sigmoid semantics" `Quick test_sigmoid_nn_semantics;
          Alcotest.test_case "encrypted sigmoid MLP" `Quick test_encrypted_mlp_sigmoid;
          Alcotest.test_case "tanh minimax accuracy" `Quick test_tanh_lowering_accuracy;
          Alcotest.test_case "unknown activation rejected" `Quick test_unknown_activation_still_rejected;
          Alcotest.test_case "debug runner" `Quick test_debug_runner_separates_errors;
        ] );
      ( "models",
        [
          Alcotest.test_case "specs" `Quick test_resnet_specs;
          Alcotest.test_case "structure counts" `Quick test_resnet_structure_counts;
          Alcotest.test_case "dataset determinism" `Quick test_dataset_determinism_and_labels;
          Alcotest.test_case "dataset separable" `Quick test_dataset_is_separable_in_clear;
          Alcotest.test_case "expert wrappers" `Quick test_expert_module_wrappers;
        ] );
    ]

