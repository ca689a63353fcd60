(* Accumulation-tree smoke: encrypted inference on a generated graph of
   wide Add trees over ct*ct products — the degree-2-heavy workload where
   lazy relinearisation collapses one relin per product into one per
   reduction root. The [eager] argument compiles with the lazy passes
   off. CI runs both variants at several ACE_DOMAINS with the verifier
   on, then compares the traced fhe.relinearize counts between the lazy
   and eager runs.

   Run with: dune exec examples/accum_infer.exe [-- eager] *)

module Pipeline = Ace_driver.Pipeline
module Graph_gen = Ace_testkit.Graph_gen
module Import = Ace_nn.Import
module Nn_interp = Ace_nn.Nn_interp
module Rng = Ace_util.Rng

let () =
  print_endline "== ANT-ACE accumulation-tree smoke ==";
  let graph = Graph_gen.generate ~cfg:Graph_gen.accumulation ~seed:100 () in
  let nn = Import.import graph in
  let eager = Array.length Sys.argv > 1 && Sys.argv.(1) = "eager" in
  let strategy = { Pipeline.ace with Pipeline.lazy_passes = not eager } in
  let compiled = Pipeline.compile strategy nn in
  let s = compiled.Pipeline.lazy_stats in
  Printf.printf "lazy passes %s: relins %d -> %d, rescales %d -> %d, deg2 high-water %d\n"
    (if eager then "off" else "on")
    s.Ace_ckks_ir.Ckks_lazy.relins_eager s.Ace_ckks_ir.Ckks_lazy.relins_lazy
    s.Ace_ckks_ir.Ckks_lazy.rescales_eager s.Ace_ckks_ir.Ckks_lazy.rescales_lazy
    s.Ace_ckks_ir.Ckks_lazy.deg2_high_water;
  let keys = Pipeline.make_keys compiled ~seed:2025 in
  let rng = Rng.create 31 in
  let input =
    Array.init (Graph_gen.input_dim graph) (fun _ -> Rng.float rng 1.6 -. 0.8)
  in
  let encrypted = Pipeline.infer_encrypted compiled keys ~seed:9 input in
  let clear = Nn_interp.run1 nn input in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := max !worst (abs_float (v -. clear.(i)))) encrypted;
  (* Same two-tier budget idea as the differential harness, collapsed to
     its loose gross-wrongness form: the polynomial activations each
     carry ~1e-2 sup error that compounds through layers. *)
  let tolerance = 0.05 +. (0.2 *. float_of_int (Graph_gen.nonlinear_count graph)) in
  Printf.printf "max |difference| = %.6f (tolerance %.3f)\n" !worst tolerance;
  if !worst < tolerance then print_endline "OK: encrypted accumulation graph matches."
  else failwith "encrypted result diverged"
