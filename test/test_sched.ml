(* Release plan: unit tests of Sched.sequential, the one liveness plan
   the VM executes and the verifier checks, and the bit-identity of the
   VM across domain-pool widths (with bootstraps, and with the
   plaintext-encode cache). *)
module Domain_pool = Ace_util.Domain_pool
module Rns_poly = Ace_rns.Rns_poly
module Sched = Ace_codegen.Sched
module Pipeline = Ace_driver.Pipeline
module Param_select = Ace_ckks_ir.Param_select
module Lower_sihe = Ace_ckks_ir.Lower_sihe
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Model = Ace_onnx.Model
module Rng = Ace_util.Rng
open Ace_ir

let with_domains n f =
  Domain_pool.set_num_domains n;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) f

(* The node after which [id] is released, or [None] if it never is. *)
let released_after sched id =
  let at = ref None in
  Array.iteri
    (fun i ids -> if Array.exists (( = ) id) ids then at := Some i)
    (Sched.free_after sched);
  !at

let check_released what sched id expected =
  Alcotest.(check (option int)) what expected (released_after sched id)

let gemv_graph () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 16 |];
  Builder.init_normal b "w" [| 4; 16 |] ~seed:3 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let conv_relu_graph () =
  let b = Builder.create "convrelu" in
  Builder.input b "x" [| 2; 4; 4 |];
  Builder.init_normal b "w" [| 2; 2; 3; 3 |] ~seed:5 ~std:0.15;
  Builder.init_normal b "bias" [| 2 |] ~seed:6 ~std:0.05;
  Builder.node b ~op:"Conv" ~attrs:[ ("pads", Model.A_ints [ 1; 1; 1; 1 ]) ]
    ~inputs:[ "x"; "w"; "bias" ] "c";
  Builder.node b ~op:"Relu" ~inputs:[ "c" ] "r";
  Builder.output b "r" [| 2; 4; 4 |];
  Builder.finish b

let check_ct_equal what (a : Ace_fhe.Ciphertext.ct) (b : Ace_fhe.Ciphertext.ct) =
  Alcotest.(check int) (what ^ ": size") (Ace_fhe.Ciphertext.size a) (Ace_fhe.Ciphertext.size b);
  Alcotest.(check (float 0.0))
    (what ^ ": scale") a.Ace_fhe.Ciphertext.ct_scale b.Ace_fhe.Ciphertext.ct_scale;
  Array.iteri
    (fun i pa ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: poly %d bit-identical" what i)
        true
        (Rns_poly.equal pa b.Ace_fhe.Ciphertext.polys.(i)))
    a.Ace_fhe.Ciphertext.polys

(* ---- release plans of hand-built graphs ---- *)

let test_diamond () =
  let f = Irfunc.create ~name:"diamond" ~level:Level.Ckks ~params:[ ("x", Types.Vec 8) ] in
  let p = Irfunc.param f 0 in
  let a = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let b = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let j = Irfunc.add f Op.C_add [| a; b |] (Types.Vec 8) in
  Irfunc.set_returns f [ j ];
  let s = Sched.sequential f in
  Sched.check f s;
  check_released "param freed after its last arm" s p (Some b);
  check_released "first arm freed after the join" s a (Some j);
  check_released "second arm freed after the join" s b (Some j);
  check_released "return never freed" s j None

(* A C_batch_get view owns nothing: its rotation batch must outlive every
   reader of every view, a returned view pins the batch, and a view nobody
   reads extends nothing. *)
let test_rotation_batch () =
  let f = Irfunc.create ~name:"views" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let p = Irfunc.param f 0 in
  let rb = Irfunc.add f (Op.C_rotate_batch [| 1; 2 |]) [| p |] Types.Cipher in
  let v0 = Irfunc.add f (Op.C_batch_get 0) [| rb |] Types.Cipher in
  let v1 = Irfunc.add f (Op.C_batch_get 1) [| rb |] Types.Cipher in
  let unused = Irfunc.add f (Op.C_batch_get 0) [| rb |] Types.Cipher in
  let x = Irfunc.add f Op.C_add [| v0; p |] Types.Cipher in
  let z = Irfunc.add f Op.C_add [| x; v1 |] Types.Cipher in
  Irfunc.set_returns f [ z ];
  let s = Sched.sequential f in
  Sched.check f s;
  check_released "batch outlives the last reader of any view" s rb (Some z);
  check_released "unused view is never released" s unused None;
  (* Same graph, but one view is also returned. *)
  Irfunc.set_returns f [ z; v0 ];
  let s = Sched.sequential f in
  Sched.check f s;
  check_released "returned view pins the batch" s rb None

(* The plan the VM builds for a real compiled model (with bootstraps) must
   pass the verifier's rules. *)
let test_compiled_schedule_checks () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  Sched.check c.Pipeline.ckks (Sched.sequential c.Pipeline.ckks)

(* ---- bit-identity across pool widths ---- *)

let run_with c keys x =
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  Pipeline.run_encrypted c keys ~seed:8 ct

(* A depth-5 context forces real bootstraps into the compiled function, so
   this exercises the node-seeded recryption rng alongside the
   limb-parallel runtime. *)
let test_bootstrapped_bit_identical () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  Alcotest.(check bool) "model bootstraps" true (Lower_sihe.bootstrap_count c.Pipeline.ckks > 0);
  let keys = Pipeline.make_keys c ~seed:45 in
  let rng = Rng.create 17 in
  let x = Array.init 32 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys x) in
  List.iter
    (fun d ->
      let got = with_domains d (fun () -> run_with c keys x) in
      check_ct_equal (Printf.sprintf "bootstrapped at %d domains" d) reference got)
    [ 2; 4 ]

(* The resident runtime's plaintext-encode cache must be transparent at
   every pool width: first and second inference bit-identical to the
   throwaway-VM path at 1 domain. *)
let test_pt_cache_identity () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv_graph ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 9 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys x) in
  List.iter
    (fun d ->
      with_domains d @@ fun () ->
      let rt = Pipeline.make_runtime c keys ~seed:8 in
      let ct () = Pipeline.encrypt_input c keys ~seed:7 x in
      let first = Pipeline.run_encrypted_rt rt (ct ()) in
      let second = Pipeline.run_encrypted_rt rt (ct ()) in
      let what = Printf.sprintf "pt-cache at %d domains" d in
      check_ct_equal (what ^ " first") reference first;
      check_ct_equal (what ^ " second (cache hit)") reference second)
    [ 1; 2 ]

let () =
  Alcotest.run "sched"
    [
      ( "analysis",
        [
          Alcotest.test_case "diamond: param dies after its last arm" `Quick test_diamond;
          Alcotest.test_case "rotation batch outlives its views' readers" `Quick
            test_rotation_batch;
          Alcotest.test_case "compiled model schedule validates" `Quick
            test_compiled_schedule_checks;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "bootstrapped model: 2/4 domains = 1 domain" `Quick
            test_bootstrapped_bit_identical;
          Alcotest.test_case "plaintext cache transparent under both pool widths" `Quick
            test_pt_cache_identity;
        ] );
    ]
