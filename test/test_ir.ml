(* IR infrastructure: builder, verifier, printer, pass manager. *)
open Ace_ir

let vec8 = Types.Vec 8

let mk_vec_fn () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  let r = Irfunc.add f (Op.V_roll 1) [| Irfunc.param f 0 |] vec8 in
  Irfunc.set_returns f [ r ];
  f

let test_builder_rejects_bad_args () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  (try
     ignore (Irfunc.add f (Op.V_roll 1) [| 99 |] vec8);
     Alcotest.fail "expected rejection of undefined argument"
   with Invalid_argument _ -> ());
  try
    ignore (Irfunc.add f Op.V_add [| Irfunc.param f 0 |] vec8);
    Alcotest.fail "expected arity rejection"
  with Invalid_argument _ -> ()

let test_builder_rejects_bad_returns () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  try
    Irfunc.set_returns f [ 42 ];
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_const_pool () =
  let f = mk_vec_fn () in
  Irfunc.add_const f "w" [| 1.0; 2.0 |];
  Irfunc.add_const f "w" [| 1.0; 2.0 |];
  (* same content: ok *)
  (try
     Irfunc.add_const f "w" [| 3.0 |];
     Alcotest.fail "expected redefinition rejection"
   with Invalid_argument _ -> ());
  let n1 = Irfunc.fresh_const f ~prefix:"m" [| 0.5 |] in
  let n2 = Irfunc.fresh_const f ~prefix:"m" [| 0.5 |] in
  Alcotest.(check bool) "fresh names distinct" true (n1 <> n2);
  Alcotest.(check bool) "lookup" true (Irfunc.const f "w" = [| 1.0; 2.0 |]);
  Alcotest.(check bool) "has_const" true (Irfunc.has_const f n1);
  try
    ignore (Irfunc.const f "ghost");
    Alcotest.fail "expected unknown const rejection"
  with Invalid_argument _ -> ()

let test_uses_counting () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  let a = Irfunc.add f (Op.V_roll 1) [| Irfunc.param f 0 |] vec8 in
  let b = Irfunc.add f Op.V_add [| a; a |] vec8 in
  Irfunc.set_returns f [ b ];
  let uses = Irfunc.uses f in
  Alcotest.(check int) "a used twice" 2 uses.(a);
  Alcotest.(check int) "b used once (return)" 1 uses.(b)

(* The fail-fast verifier is the collecting one: it fails exactly when
   [well_formed] reports. *)
let fail_fast_agrees f =
  Alcotest.(check bool)
    "verify_result fails iff well_formed reports" (Verify.well_formed ~pass:"test" f <> [])
    (Result.is_error (Verify.verify_result f))

let test_verifier_level_rule () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  let x = Irfunc.param f 0 in
  (* SIHE op in a VECTOR function must be rejected. *)
  let bad = Irfunc.add f (Op.S_rotate 1) [| x |] vec8 in
  Irfunc.set_returns f [ bad ];
  fail_fast_agrees f;
  match Verify.verify_result f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted a SIHE op in a VECTOR function"

let test_verifier_allows_vector_in_sihe () =
  let f = Irfunc.create ~name:"f" ~level:Level.Sihe ~params:[ ("x", Types.Cipher) ] in
  Irfunc.add_const f "w" (Array.make 8 1.0);
  let w = Irfunc.add f (Op.Weight "w") [||] vec8 in
  let r = Irfunc.add f (Op.V_roll 2) [| w |] vec8 in
  let p = Irfunc.add f Op.S_encode [| r |] Types.Plain in
  let out = Irfunc.add f Op.S_mul [| Irfunc.param f 0; p |] Types.Cipher in
  Irfunc.set_returns f [ out ];
  fail_fast_agrees f;
  Verify.verify f

let test_verifier_rejects_nonlinear_below_vector () =
  let f = Irfunc.create ~name:"f" ~level:Level.Sihe ~params:[ ("x", Types.Cipher) ] in
  let bad = Irfunc.add f (Op.V_nonlinear "relu") [| Irfunc.param f 0 |] Types.Cipher in
  Irfunc.set_returns f [ bad ];
  fail_fast_agrees f;
  match Verify.verify_result f with
  | Error m ->
    Alcotest.(check bool) "mentions nonlinear" true
      (String.length m > 0 && String.exists (fun c -> c = 'n') m)
  | Ok () -> Alcotest.fail "verifier accepted an unapproximated nonlinear"

let test_verifier_type_rules () =
  (* cipher * cipher must produce cipher3 *)
  let f = Irfunc.create ~name:"f" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let x = Irfunc.param f 0 in
  let bad = Irfunc.add f Op.C_mul [| x; x |] Types.Cipher in
  Irfunc.set_returns f [ bad ];
  fail_fast_agrees f;
  (match Verify.verify_result f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cipher*cipher should be cipher3");
  let g = Irfunc.create ~name:"g" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let x = Irfunc.param g 0 in
  let m = Irfunc.add g Op.C_mul [| x; x |] Types.Cipher3 in
  let r = Irfunc.add g Op.C_relin [| m |] Types.Cipher in
  Irfunc.set_returns g [ r ];
  fail_fast_agrees g;
  Verify.verify g

let test_verifier_weight_shape () =
  let f = Irfunc.create ~name:"f" ~level:Level.Vector ~params:[ ("x", vec8) ] in
  Irfunc.add_const f "w" [| 1.0; 2.0; 3.0 |];
  let w = Irfunc.add f (Op.Weight "w") [||] vec8 in
  (* 3 elements declared as vec<8> *)
  Irfunc.set_returns f [ w ];
  fail_fast_agrees f;
  match Verify.verify_result f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted a weight shape mismatch"

let test_printer_and_line_count () =
  let f = mk_vec_fn () in
  let s = Printer.to_string f in
  Alcotest.(check bool) "has header" true (String.length s > 10);
  Alcotest.(check int) "line count" 3 (Printer.line_count f)

let test_pass_manager_times_and_verifies () =
  let p_ok = Pass.make ~name:"identity" ~level:Level.Vector (fun f -> f) in
  let f = mk_vec_fn () in
  let out, timings = Pass.run_pipeline [ p_ok; p_ok ] f in
  Alcotest.(check int) "timings per pass" 2 (List.length timings);
  Alcotest.(check bool) "function preserved" true (Irfunc.num_nodes out = Irfunc.num_nodes f);
  let per_level = Pass.level_seconds timings in
  Alcotest.(check bool) "vector level present" true
    (List.mem_assoc Level.Vector per_level)

let test_pass_manager_catches_breakage () =
  let p_bad =
    Pass.make ~name:"breaker" ~level:Level.Vector (fun f ->
        (* Build an ill-formed function: op from the wrong level. *)
        let g = Irfunc.create ~name:"g" ~level:Level.Vector ~params:[ ("x", vec8) ] in
        let b = Irfunc.add g (Op.C_rescale) [| Irfunc.param g 0 |] vec8 in
        Irfunc.set_returns g [ b ];
        ignore f;
        g)
  in
  let f = mk_vec_fn () in
  try
    ignore (Pass.run_pipeline [ p_bad ] f);
    Alcotest.fail "expected Ill_formed"
  with Verify.Ill_formed _ -> ()

let test_level_lowering_chain () =
  let rec walk l acc =
    match Level.lower_target l with
    | None -> List.rev (l :: acc)
    | Some next -> walk next (l :: acc)
  in
  let chain = walk Level.Nn [] in
  Alcotest.(check int) "five levels" 5 (List.length chain);
  Alcotest.(check string) "last is POLY" "POLY" (Level.to_string (List.nth chain 4))

let test_op_metadata_consistency () =
  (* Every op with a level prints a mnemonic mentioning that level. *)
  List.iter
    (fun (op, lvl) ->
      match Op.level op with
      | Some l ->
        Alcotest.(check string) (Op.name op) (Level.to_string lvl) (Level.to_string l)
      | None -> Alcotest.fail "expected a level")
    [
      (Op.V_roll 3, Level.Vector);
      (Op.S_mul, Level.Sihe);
      (Op.C_bootstrap 2, Level.Ckks);
      (Op.Nn Op.Relu, Level.Nn);
    ]

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          Alcotest.test_case "bad args" `Quick test_builder_rejects_bad_args;
          Alcotest.test_case "bad returns" `Quick test_builder_rejects_bad_returns;
          Alcotest.test_case "const pool" `Quick test_const_pool;
          Alcotest.test_case "uses counting" `Quick test_uses_counting;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "level rule" `Quick test_verifier_level_rule;
          Alcotest.test_case "vector-in-sihe allowed" `Quick test_verifier_allows_vector_in_sihe;
          Alcotest.test_case "nonlinear below vector" `Quick test_verifier_rejects_nonlinear_below_vector;
          Alcotest.test_case "type rules" `Quick test_verifier_type_rules;
          Alcotest.test_case "weight shape" `Quick test_verifier_weight_shape;
        ] );
      ( "infra",
        [
          Alcotest.test_case "printer" `Quick test_printer_and_line_count;
          Alcotest.test_case "pass manager" `Quick test_pass_manager_times_and_verifies;
          Alcotest.test_case "pass breakage caught" `Quick test_pass_manager_catches_breakage;
          Alcotest.test_case "level chain" `Quick test_level_lowering_chain;
          Alcotest.test_case "op metadata" `Quick test_op_metadata_consistency;
        ] );
    ]
