(* The repository's benchmark. Usually started through run.py, which
   builds it first:

     perfbench.exe --workload compile-zoo|resnet20-infer|serve-gemv
                   --seed N --seconds S --trace 0|1
                   [--serve-exe PATH] [--out DIR]
                   [--commit SHA] [--source-digest HEX]

   Untraced runs report the end-to-end metrics; a traced run (--trace 1)
   reports the per-layer metrics and writes its spans to DIR. Standard
   output ends with one JSON line: correct, attempted, failed, metrics. *)

open Common

(* The headline of each workload, reported in every run as work_s, the
   seconds one unit of the workload's work takes, next to setup_s and
   peak_rss_mb: the result line carries the same metrics on every
   workload. A server's unit is one request at saturation (the inverse
   of its throughput). *)
let work_metric = function
  | "compile-zoo" -> ("compile_s", Fun.id)
  | "resnet20-infer" -> ("infer_p50_s", Fun.id)
  | "serve-gemv" -> ("serve.sat_rps", fun rps -> 1.0 /. rps)
  | w -> invalid_arg w

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 30 in
  let trace = ref 0 in
  let serve_exe = ref "" in
  let out_dir = ref "perfbench/out" in
  let commit = ref "unknown" in
  let source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH to ace_serve.exe");
      ("--out", Arg.Set_string out_dir, "DIR for traces and daemon files");
      ("--commit", Arg.Set_string commit, "SHA");
      ("--source-digest", Arg.Set_string source_digest, "HEX");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  if seconds < 1 then failwith "--seconds must be at least 1";
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s-seed%d" !workload seed in
  (match !workload with
  | "compile-zoo" -> Zoo.run ~seed ~seconds ~trace:traced
  | "resnet20-infer" -> Infer.run ~seed ~seconds ~trace:traced
  | "serve-gemv" -> Serve.run ~seed ~seconds ~trace:traced ~exe:!serve_exe ~out:!out_dir ~tag
  | w -> failwith ("unknown workload " ^ w ^ " (compile-zoo | resnet20-infer | serve-gemv)"));
  if traced then begin
    let dropped = Telemetry.dropped_events () in
    layer "trace.dropped_events" "count" (float_of_int dropped);
    check ~what:(Printf.sprintf "trace dropped %d events" dropped) (dropped = 0);
    let path = Filename.concat !out_dir (tag ^ ".trace.json") in
    Telemetry.write_trace path;
    log "trace: %s" path
  end;
  let e2e_rows = List.rev !e2e_metrics in
  let layer_rows = List.rev !layer_metrics in
  let find name = List.find (fun m -> m.m_name = name) e2e_rows in
  let fail_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let work_name, to_seconds = work_metric !workload in
  let work_s =
    { m_name = "work_s"; m_unit = "s"; m_value = to_seconds (find work_name).m_value;
      m_note = "from " ^ work_name }
  in
  let reported = if traced then layer_rows else [ find "setup_s"; work_s; find "peak_rss_mb" ] in
  (* Human-readable table, then the detail record, then the result. *)
  let show m = Printf.printf "  %-32s %16.6g %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note in
  Printf.printf "%s  seed %d  (%s)\n" !workload seed (if traced then "traced" else "untraced");
  List.iter show e2e_rows;
  Printf.printf "  %-32s %16.6g %-6s %d failed of %d attempted\n" "fail_ratio" fail_ratio "" !failed
    !attempted;
  if traced then List.iter show layer_rows;
  let value_json ?note m =
    json_obj
      ([ ("value", json_number m.m_value); ("unit", json_string m.m_unit) ]
      @ match note with Some n -> [ ("note", json_string n) ] | None -> [])
  in
  print_endline
    (json_obj
       [
         ( "perfbench",
           json_obj
             [
               ( "provenance",
                 provenance ~workload:!workload ~seed ~seconds ~trace:traced ~commit:!commit
                   ~source_digest:!source_digest );
               ("e2e", json_obj (List.map (fun m -> (m.m_name, value_json ~note:m.m_note m)) e2e_rows));
               ("fail_ratio", json_number fail_ratio);
             ] );
       ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (!failed = 0));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("metrics", json_obj (List.map (fun m -> (m.m_name, value_json m)) reported));
       ])
