(* compile-zoo: Pipeline.compile with the ACE strategy on the paper's
   ResNet-20/32/44/56. Nothing is encrypted, so the compiler levels and
   the C emission do all the work and the runtime does none. ResNet-110
   is left out: it alone would take most of a run and adds no stage. *)

open Common
module Pipeline = Ace_driver.Pipeline
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset

let specs = Resnet.[ resnet20; resnet32; resnet44; resnet56 ]

(* Each model's compiled program is checked on one seeded image, at two
   levels. The VECTOR program (Vec_interp, exact ReLU) against the model
   (Nn_interp) checks every layout and mask the lowering produced: they
   agree to rounding. The SIHE program (Sihe_interp, polynomial ReLU)
   against the model measures the ReLU approximation error. *)
let layout_bound = 1e-9

(* The approximation is gated on ResNet-20 only, the model for which
   EXPERIMENTS.md claims logit deviations of 0.005-0.02. On ResNet-32, -44
   and -56 the SIHE program's logits collapse to about 0 (the composite
   sign's dead zone compounding over 31+ ReLUs, which the ROADMAP's
   input-range calibration item targets), so their error is reported as
   zoo.sihe_err.<model> on every run but not gated. *)
let approx_bound = 0.05
let approx_gated (s : Resnet.spec) = s == Resnet.resnet20

(* Graph build is the set-up: import and weight calibration of one
   model. [Resnet.build_calibrated] caches by model name, so every build
   after a model's first uses a fresh name to pay the full cost again.
   [times] collects each model's build times. *)
let build times (s : Resnet.spec) =
  let rep = List.length (Hashtbl.find_all times s.model_name) in
  let s' =
    if rep = 0 then s else { s with model_name = Printf.sprintf "%s.rep%d" s.model_name rep }
  in
  let nn, dt = timed (fun () -> Resnet.build_calibrated s') in
  Hashtbl.add times s.model_name dt;
  nn

let max_diff a b =
  let err = ref 0.0 in
  Array.iteri (fun i v -> err := Float.max !err (Float.abs (v -. b.(i)))) a;
  !err

let gate ~seed (s : Resnet.spec) nn (c : Pipeline.compiled) =
  let data =
    Dataset.generate ~classes:s.classes ~image_size:s.image_size ~count:1 ~noise:0.08 ~seed
  in
  let image = data.Dataset.images.(0) in
  let clear = Ace_nn.Nn_interp.run1 nn image in
  let packed = Ace_vector.Layout.vector_of_tensor c.Pipeline.input_layout image in
  let unpack = Ace_vector.Layout.tensor_of_vector (List.hd c.Pipeline.output_layouts) in
  let layout_err = max_diff (unpack (Ace_vector.Vec_interp.run1 c.Pipeline.vec packed)) clear in
  check
    ~what:
      (Printf.sprintf "%s: VECTOR vs NN max |diff| %.4g > %g" s.model_name layout_err layout_bound)
    (layout_err <= layout_bound);
  let approx_err = max_diff (unpack (Ace_sihe.Sihe_interp.run1 c.Pipeline.sihe packed)) clear in
  if approx_gated s then
    check
      ~what:
        (Printf.sprintf "%s: SIHE vs NN max |diff| %.4g > %g" s.model_name approx_err approx_bound)
      (approx_err <= approx_bound);
  (layout_err, approx_err)

(* One round compiles every model once. [before] runs ahead of each
   model's compile and [after] sees the compiled program, both outside
   the timed call; the program is dropped before the next model
   compiles, so peak memory is that of the largest model. The garbage
   of whatever ran before is collected ahead of the compile, not in it. *)
let round ?(before = ignore) ~after zoo =
  List.map
    (fun ((s : Resnet.spec), nn) ->
      before s;
      Gc.full_major ();
      let c, r = Layers.compile ~id:s.model_name nn in
      after s nn c;
      r)
    zoo

let total_wall runs = Layers.sum (fun r -> r.Layers.wall) runs

let run ~seed ~seconds ~trace =
  (* Each model is built once here and twice more ahead of each of its
     compiles below. Its build time is the median of those builds, spread
     over the whole run, so that a burst of host load during one stretch
     of the run does not set it. *)
  let build_times = Hashtbl.create 4 in
  let zoo = List.map (fun s -> (s, build build_times s)) specs in
  (* Whole rounds while another one still fits in the run time, and at
     least two: one round is a single stretch of the host's load, which
     on a shared host moves by 10-20 % from one run to the next. The
     first round's outputs are checked. *)
  let errs = ref [] in
  let rounds =
    repeat_within ~least:2 seconds (fun i ->
        round zoo
          ~before:(fun s ->
            for _ = 1 to 2 do
              ignore (build build_times s)
            done)
          ~after:(fun s nn c ->
            if i = 0 then errs := (s, gate ~seed s nn c) :: !errs))
  in
  let build_s =
    List.fold_left
      (fun acc (s : Resnet.spec) -> acc +. median (Hashtbl.find_all build_times s.model_name))
      0.0 specs
  in
  e2e
    ~note:
      (Printf.sprintf "per model: median of %d builds"
         (List.length (Hashtbl.find_all build_times Resnet.resnet20.model_name)))
    "setup_s" "s" build_s;
  (* Each model's time is its median over rounds; compile_s is their sum. *)
  let compile_s = sum_of_medians (List.map (List.map (fun r -> r.Layers.wall)) rounds) in
  e2e
    ~note:(Printf.sprintf "%d round(s) of %d models" (List.length rounds) (List.length specs))
    "compile_s" "s" compile_s;
  e2e "peak_rss_mb" "MB" (peak_rss_mb "self");
  List.iter
    (fun ((s : Resnet.spec), (layout_err, approx_err)) ->
      e2e ~note:(Printf.sprintf "gate: <= %g" layout_bound) ("zoo.layout_err." ^ s.model_name) "abs"
        layout_err;
      e2e
        ~note:
          (if approx_gated s then Printf.sprintf "gate: <= %g" approx_bound
           else "not gated: deep-model collapse, see README")
        ("zoo.sihe_err." ^ s.model_name) "abs" approx_err)
    (List.rev !errs);
  if trace then begin
    Telemetry.set_tracing true;
    let counts = ref [] in
    let verify = ref [] in
    let traced =
      round zoo ~after:(fun s _ c ->
          counts := Layers.program_counts c :: !counts;
          verify := Layers.verify_probe ~id:s.model_name c :: !verify)
    in
    layer "trace.overhead_ratio" "ratio" (total_wall traced /. compile_s);
    layer "nn.build_s" "s" build_s;
    Layers.compile_rows traced;
    Layers.verify_rows !verify;
    Layers.program_rows !counts;
    Layers.absent_runtime ();
    Layers.absent_serve ()
  end
