(* Shared plumbing of the benchmark: clocks, sample statistics, the
   metric record every workload fills, benchmark-side spans, provenance
   and the result lines. *)

module Telemetry = Ace_telemetry.Telemetry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Calls [f 0], [f 1], ... while one more call, as long as the last one,
   still ends within [seconds] of the start; at least [least] calls.
   Whole units of work, results in order. *)
let repeat_within ?(least = 1) seconds f =
  let t0 = now () in
  let rec go i acc =
    let v, dt = timed (fun () -> f i) in
    if i + 1 < least || now () -. t0 +. dt <= float_of_int seconds then go (i + 1) (v :: acc)
    else List.rev (v :: acc)
  in
  go 0 []

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

(* ---------- sample statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Rows are repeats of one unit of work, columns its parts (one per
   model, say): each part's median over the repeats, summed. *)
let sum_of_medians rows =
  match rows with
  | [] -> invalid_arg "sum_of_medians: no repeats"
  | first :: _ ->
    List.fold_left ( +. ) 0.0
      (List.mapi (fun i _ -> median (List.map (fun row -> List.nth row i) rows)) first)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. The epsilon keeps 0.9 *. 100 from rounding up
   to rank 91. *)
let rank p n = max 1 (int_of_float (ceil ((p *. float_of_int n) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  a.(rank p (Array.length a) - 1)

(* The tail of a latency sample: the highest percentile of a fixed ladder
   with at least ten samples beyond it. Phases issue a fixed number of
   requests, so every run of a workload reports the same percentile. *)
let tail xs =
  let n = List.length xs in
  let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ] in
  match List.find_opt (fun p -> n - rank p n >= 10) ladder with
  | Some p -> (p, percentile xs p, n)
  | None -> invalid_arg (Printf.sprintf "tail of %d samples: need at least 20" n)

(* ---------- metrics ---------- *)

(* End-to-end metrics are what a user of the workload sees; layer
   metrics attribute them and come from the traced run only. [note]
   carries what a bare number cannot, such as which percentile a tail
   is and over how many samples. *)
type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let e2e_metrics : metric list ref = ref []
let layer_metrics : metric list ref = ref []

let push into ?(note = "") name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not a finite number" name);
  into := { m_name = name; m_value = value; m_unit = unit_; m_note = note } :: !into

let e2e = push e2e_metrics
let layer = push layer_metrics

(* Layers this workload does not exercise read 0, so every traced run
   reports the same set of rows. *)
let absent names = List.iter (fun (name, unit_) -> layer name unit_ 0.0) names

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* One unit of work checked against its reference. [what] names the unit
   in the log when it misses. *)
let check ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    log "FAIL: %s" what
  end

(* ---------- benchmark-side spans ---------- *)

(* Spans around each call into a layer ride the program's own span
   recorder, so one trace holds both the benchmark's layer boundaries
   (category "bench", with the request or image id in [id]) and the
   program's existing ACE_TRACE spans nested inside them. Off unless the
   run is traced: a disabled span is one flag read. *)
let id_args = function Some i -> [ ("id", i) ] | None -> []

let span ?id name f = Telemetry.span ~cat:"bench" ~args:(id_args id) name f

let bench_events name =
  List.filter
    (fun e -> e.Telemetry.ev_cat = "bench" && e.Telemetry.ev_name = name)
    (Telemetry.events ())

(* Median duration, in seconds, of the benchmark spans called [name]. *)
let span_median name =
  match bench_events name with
  | [] -> failwith ("no spans named " ^ name)
  | evs -> median (List.map (fun e -> e.Telemetry.ev_dur_us *. 1e-6) evs)

(* Time [f] [reps] times, each call inside its own span, and return the
   median span duration in seconds. *)
let probe ?(reps = 7) name f =
  for i = 1 to reps do
    ignore (span ~id:(string_of_int i) name f)
  done;
  span_median name

(* ---------- process facts ---------- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let nproc () =
  let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
  let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
  ignore (Unix.close_process_in ic);
  n

(* ---------- output ---------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let provenance ~workload ~seed ~seconds ~trace ~commit ~source_digest =
  let env =
    List.filter
      (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "ACE_")
      (Array.to_list (Unix.environment ()))
    |> List.sort compare
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
             (String.sub kv 0 i, json_string (String.sub kv (i + 1) (String.length kv - i - 1)))
           | None -> (kv, json_string ""))
  in
  json_obj
    [
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (nproc ()));
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("runtime_domains", string_of_int (Ace_driver.Pipeline.runtime_domains ()));
      ("ocaml_version", json_string Sys.ocaml_version);
      ("commit", json_string commit);
      ("source_digest", json_string source_digest);
      ("ace_env", json_obj env);
    ]
