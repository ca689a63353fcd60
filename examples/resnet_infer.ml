(* Encrypted ResNet inference — the paper's motivating workload.

   Compiles a simulation-scale ResNet-20, runs one encrypted image, and
   prints the Figure-6-style phase breakdown plus the accuracy check.

   Run with: dune exec examples/resnet_infer.exe
   (single-threaded; takes half a minute or so) *)

module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset
module Telemetry = Ace_telemetry.Telemetry

let () =
  let spec = Resnet.resnet20 in
  Printf.printf "building %s (sim scale: 3x%dx%d, %d base channels)...\n%!"
    spec.Resnet.model_name spec.Resnet.image_size spec.Resnet.image_size
    spec.Resnet.base_channels;
  let nn = Resnet.build_calibrated spec in
  let t0 = Unix.gettimeofday () in
  let c = Pipeline.compile Pipeline.ace nn in
  Printf.printf "compile time: %.2fs\n%!" (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Stats.pp (Stats.of_compiled c);
  List.iter
    (fun (lvl, s) -> Printf.printf "  %-6s lowering: %.3fs\n" (Ace_ir.Level.to_string lvl) s)
    c.Pipeline.level_seconds;

  let keys = Pipeline.make_keys c ~seed:31 in
  Printf.printf "evaluation keys: %.1f MB (%d rotation keys)\n%!"
    (float_of_int
       (Ace_ckks_ir.Keygen_plan.evaluation_key_bytes c.Pipeline.context c.Pipeline.key_plan)
    /. 1048576.0)
    (Ace_ckks_ir.Keygen_plan.key_count c.Pipeline.key_plan);

  let data = Dataset.generate ~classes:spec.Resnet.classes ~image_size:spec.Resnet.image_size
      ~count:1 ~noise:0.08 ~seed:5 in
  let image = data.Dataset.images.(0) in
  Telemetry.reset_metrics ();
  let t0 = Unix.gettimeofday () in
  let encrypted_logits = Pipeline.infer_encrypted c keys ~seed:32 image in
  let dt = Unix.gettimeofday () -. t0 in
  let clear_logits = Ace_nn.Nn_interp.run1 nn image in
  Printf.printf "\nper-image encrypted inference: %.2fs\n" dt;
  let snap = Telemetry.snapshot () in
  let with_prefix prefix f =
    List.iter
      (fun (st : Telemetry.metric_stats) ->
        let name = st.Telemetry.st_name and k = String.length prefix in
        if String.length name > k && String.sub name 0 k = prefix then
          f (String.sub name k (String.length name - k)) st)
      snap.Telemetry.snap_metrics
  in
  with_prefix "phase." (fun p st -> Printf.printf "  phase %-10s %6.2fs\n" p st.Telemetry.st_total);
  Printf.printf "homomorphic ops: ";
  with_prefix "fhe." (fun op st -> Printf.printf "%s=%d " op st.Telemetry.st_count);
  print_newline ();
  Printf.printf "\npredicted class: cleartext=%d encrypted=%d (label %d)\n"
    (Dataset.argmax clear_logits) (Dataset.argmax encrypted_logits) data.Dataset.labels.(0);
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := max !worst (abs_float (v -. clear_logits.(i)))) encrypted_logits;
  Printf.printf "max logit deviation: %.4f\n" !worst
