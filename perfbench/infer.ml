(* resnet20-infer: one client runs the paper's ResNet-20 at simulation
   scale on a resident runtime. The fhe and rns runtime (bootstraps, key
   switching, NTT), the limb pool and the domain pool take nearly all of
   the wall time; compile is a small share and serving is absent. *)

open Common
module Pipeline = Ace_driver.Pipeline
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset

let spec = Resnet.resnet20

(* Encrypted logits may differ from the exact cleartext model by the
   ReLU sign approximation plus CKKS noise. *)
let logit_bound = 0.1

type image_run = {
  encrypt_s : float;
  run_s : float;
  decrypt_s : float;
  logits : float array;
  encrypt_samples : float list;  (** [encrypt_s] and [client_repeats] more *)
  decrypt_samples : float list;
}

(* Client-side encryption and decryption take milliseconds; each image
   repeats them so that their medians rest on samples spread over the
   run. *)
let client_repeats = 4

(* Image [i]'s encryption and bootstrap randomness both derive from the
   workload seed. *)
let image_seed ~seed i = (seed * 1009) + i

let one_image ?counters c keys rt ~seed i image =
  let args = [ ("id", "img" ^ string_of_int i) ] in
  let encrypt () = Pipeline.encrypt_input c keys ~seed:(image_seed ~seed i) image in
  let ct, encrypt_s = Telemetry.timed ~cat:"bench" ~args "pipeline.encrypt_input" encrypt in
  let exec () = Pipeline.run_encrypted_rt rt ct in
  let out, run_s =
    Telemetry.timed ~cat:"bench" ~args "pipeline.run_encrypted_rt" (fun () ->
        match counters with Some rc -> Layers.counted rc exec | None -> exec ())
  in
  let decrypt () =
    Telemetry.timed ~cat:"bench" ~args "pipeline.decrypt_output" (fun () ->
        Pipeline.decrypt_output c keys out)
  in
  let logits, decrypt_s = decrypt () in
  let again f = List.init client_repeats (fun _ -> snd (f ())) in
  let encrypt_samples = encrypt_s :: again (fun () -> timed encrypt) in
  let decrypt_samples = decrypt_s :: again decrypt in
  { encrypt_s; run_s; decrypt_s; logits; encrypt_samples; decrypt_samples }

let total r = r.encrypt_s +. r.run_s +. r.decrypt_s

let run ~seed ~seconds ~trace =
  let data =
    Dataset.generate ~classes:spec.classes ~image_size:spec.image_size ~count:64 ~noise:0.08 ~seed
  in
  let image i = data.Dataset.images.(i mod Array.length data.Dataset.images) in
  (* Set-up: graph build, compile, keygen, the resident runtime and one
     warm-up image. It is paid once per run: one set-up costs more than
     a third of the run. *)
  let t_setup = now () in
  let nn = Resnet.build_calibrated spec in
  let c, compile_run = Layers.compile ~id:spec.model_name nn in
  let keys, keygen_s =
    Telemetry.timed ~cat:"bench" "pipeline.make_keys" (fun () -> Pipeline.make_keys c ~seed)
  in
  let rt =
    span "pipeline.make_runtime" (fun () -> Pipeline.make_runtime c keys ~seed:(seed + 1))
  in
  let warm = one_image c keys rt ~seed 0 (image 0) in
  let setup_s = now () -. t_setup in
  (* Measurement: whole images while another still fits; at least one. *)
  let rc = Layers.start_counters () in
  let runs =
    repeat_within seconds (fun k ->
        let i = k + 1 in
        (i, one_image ~counters:rc c keys rt ~seed i (image i)))
  in
  (* The counters cover exactly the timed executions. *)
  if trace then Layers.counter_rows rc;
  let infer_p50_s = median (List.map (fun (_, r) -> total r) runs) in
  e2e ~note:(Printf.sprintf "%d image(s)" (List.length runs)) "infer_p50_s" "s" infer_p50_s;
  e2e "encrypt_p50_ms" "ms" (1e3 *. median (List.concat_map (fun (_, r) -> r.encrypt_samples) runs));
  e2e "decrypt_p50_ms" "ms" (1e3 *. median (List.concat_map (fun (_, r) -> r.decrypt_samples) runs));
  e2e "peak_rss_mb" "MB" (peak_rss_mb "self");
  (* One call each, from the set-up: the run's time goes to images. *)
  e2e ~note:"one set-up" "setup_s" "s" setup_s;
  e2e ~note:"one call" "compile_s" "s" compile_run.Layers.wall;
  e2e ~note:"one call" "keygen_s" "s" keygen_s;
  (* Gates, outside the timed region: every image (the warm-up too)
     against the cleartext model. *)
  let agree = ref 0 in
  let worst = ref 0.0 in
  List.iter
    (fun (i, r) ->
      let clear = Ace_nn.Nn_interp.run1 nn (image i) in
      let err = ref 0.0 in
      Array.iteri (fun k v -> err := Float.max !err (Float.abs (v -. clear.(k)))) r.logits;
      worst := Float.max !worst !err;
      if Dataset.argmax clear = Dataset.argmax r.logits then incr agree;
      check
        ~what:(Printf.sprintf "image %d: max |encrypted - cleartext| %.4g > %g" i !err logit_bound)
        (!err <= logit_bound))
    ((0, warm) :: runs);
  e2e ~note:(Printf.sprintf "gate: <= %g" logit_bound) "infer.max_abs_err" "abs" !worst;
  e2e ~note:(Printf.sprintf "of %d images, not gated" (List.length runs + 1))
    "infer.argmax_agree" "count" (float_of_int !agree);
  if trace then begin
    let run_s = median (List.map (fun (_, r) -> r.run_s) runs) in
    let i = List.length runs + 1 in
    (* The op level comes from one more execution with the flight
       recorder on, apart from the traced image, so that the overhead
       ratio counts tracing alone. *)
    let level =
      Layers.median_op_level (fun () ->
          Pipeline.run_encrypted_rt rt
            (Pipeline.encrypt_input c keys ~seed:(image_seed ~seed i) (image i)))
    in
    Telemetry.set_tracing true;
    let traced = one_image c keys rt ~seed i (image i) in
    layer "trace.overhead_ratio" "ratio" (total traced /. infer_p50_s);
    layer "driver.first_infer_s" "s" (total warm);
    layer "nn.build_s" "s"
      (probe ~reps:1 "nn.build" (fun () ->
           Resnet.build_calibrated { spec with model_name = spec.model_name ^ ".traced" }));
    Layers.compile_rows [ compile_run ];
    Layers.verify_rows [ Layers.verify_probe ~id:spec.model_name c ];
    Layers.program_rows [ Layers.program_counts c ];
    let costs = Layers.fhe_rows ~seed ~level c keys in
    Layers.vm_residual c costs ~run_s;
    Layers.absent_serve ()
  end
