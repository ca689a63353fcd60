(* Per-domain shards keyed by Domain.DLS: every recording path touches only
   the calling domain's buffers, so pool workers never contend or race
   (shared global counters drop increments under ACE_DOMAINS>1).
   Readers merge the shard registry, which only ever grows — a domain's
   data outlives the domain, so resizing the pool loses nothing.

   Quantiles come from Qsketch: a bounded, mergeable log-bucket estimator
   (O(1) state per metric per shard, ~2.2% relative error). Merging is a
   commutative integer bucket sum, so snapshots are independent of shard
   enumeration order and windowed deltas are bucket-wise subtractions —
   a long-running serving process reports periodically without the
   unbounded reservoirs or the reset_metrics races of the PR 3 design. *)

let schema_version = 2

let epoch_s = Unix.gettimeofday ()
let to_rel_us t = (t -. epoch_s) *. 1e6

(* ---------- metric registry (global, mutex; registration is rare) ---------- *)

type metric = int

let registry_m = Mutex.create ()
let ids_by_name : (string, int) Hashtbl.t = Hashtbl.create 64
let names_by_id : (int, string) Hashtbl.t = Hashtbl.create 64
let next_metric = ref 0

let metric name =
  Mutex.lock registry_m;
  let id =
    match Hashtbl.find_opt ids_by_name name with
    | Some id -> id
    | None ->
      let id = !next_metric in
      next_metric := id + 1;
      Hashtbl.add ids_by_name name id;
      Hashtbl.add names_by_id id name;
      id
  in
  Mutex.unlock registry_m;
  id

let metric_name id =
  Mutex.lock registry_m;
  let n = Hashtbl.find names_by_id id in
  Mutex.unlock registry_m;
  n

let registered_metrics () =
  Mutex.lock registry_m;
  let l = Hashtbl.fold (fun name id acc -> (name, id) :: acc) ids_by_name [] in
  Mutex.unlock registry_m;
  List.sort compare l

let num_metrics () =
  Mutex.lock registry_m;
  let n = !next_metric in
  Mutex.unlock registry_m;
  n

(* ---------- shards ---------- *)

let event_cap = 262_144
let flight_cap = 1_048_576

type event = {
  ev_tid : int;
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_args : (string * string) list;
}

type flight_record = {
  fl_seq : int;
  fl_op : string;
  fl_degree : int;
  fl_level : int;
  fl_limbs : int;
  fl_scale_bits : float;
  fl_budget_bits : float;
}

let dummy_event = { ev_tid = 0; ev_name = ""; ev_cat = ""; ev_ts_us = 0.0; ev_dur_us = 0.0; ev_args = [] }

let dummy_flight =
  { fl_seq = 0; fl_op = ""; fl_degree = 1; fl_level = 0; fl_limbs = 0; fl_scale_bits = 0.0; fl_budget_bits = 0.0 }

type shard = {
  sh_id : int;
  mutable sh_counts : int array; (* indexed by metric id *)
  mutable sh_sketches : Qsketch.t option array;
  mutable sh_events : event array; (* filled prefix [0, sh_ev_len) *)
  mutable sh_ev_len : int;
  mutable sh_ev_dropped : int;
  mutable sh_flight : flight_record array;
  mutable sh_fl_len : int;
}

let shards_m = Mutex.create ()
let all_shards : shard list ref = ref []
let next_shard = ref 0

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock shards_m;
      let id = !next_shard in
      next_shard := id + 1;
      let s =
        {
          sh_id = id;
          sh_counts = Array.make 32 0;
          sh_sketches = Array.make 32 None;
          sh_events = [||];
          sh_ev_len = 0;
          sh_ev_dropped = 0;
          sh_flight = [||];
          sh_fl_len = 0;
        }
      in
      all_shards := s :: !all_shards;
      Mutex.unlock shards_m;
      s)

let my_shard () = Domain.DLS.get shard_key

let shards () =
  Mutex.lock shards_m;
  let l = !all_shards in
  Mutex.unlock shards_m;
  l

let ensure_metric sh id =
  let n = Array.length sh.sh_counts in
  if id >= n then begin
    let n' = max 32 (max (id + 1) (2 * n)) in
    let c = Array.make n' 0 in
    Array.blit sh.sh_counts 0 c 0 n;
    sh.sh_counts <- c;
    let h = Array.make n' None in
    Array.blit sh.sh_sketches 0 h 0 n;
    sh.sh_sketches <- h
  end

let sketch_for sh id =
  match sh.sh_sketches.(id) with
  | Some q -> q
  | None ->
    let q = Qsketch.create () in
    sh.sh_sketches.(id) <- Some q;
    q

let incr m =
  let sh = my_shard () in
  ensure_metric sh m;
  sh.sh_counts.(m) <- sh.sh_counts.(m) + 1

let observe m v =
  let sh = my_shard () in
  ensure_metric sh m;
  Qsketch.add (sketch_for sh m) v

let count_of m =
  List.fold_left
    (fun acc sh -> if m < Array.length sh.sh_counts then acc + sh.sh_counts.(m) else acc)
    0 (shards ())

let fold_sketches m ~init ~f =
  List.fold_left
    (fun acc sh ->
      if m < Array.length sh.sh_sketches then
        match sh.sh_sketches.(m) with Some q -> f acc q | None -> acc
      else acc)
    init (shards ())

let sum_of m = fold_sketches m ~init:0.0 ~f:(fun acc q -> acc +. Qsketch.sum q)

(* Merged view of one metric's shard sketches; None when no shard ever
   observed it. Shard order does not matter: bucket sums commute. *)
let merged_sketch m =
  fold_sketches m ~init:None ~f:(fun acc q ->
      match acc with
      | None -> Some (Qsketch.copy q)
      | Some dst ->
        Qsketch.merge dst q;
        Some dst)

let metric_names () =
  List.filter_map
    (fun (name, id) ->
      let active =
        count_of id > 0 || fold_sketches id ~init:0 ~f:(fun a q -> a + Qsketch.count q) > 0
      in
      if active then Some name else None)
    (registered_metrics ())

(* ---------- flags / configuration ---------- *)

let tracing_flag = Atomic.make false
let flight_flag = Atomic.make false
let metrics_dump_flag = Atomic.make false
let trace_path : string option ref = ref None (* written rarely, main domain *)

let tracing () = Atomic.get tracing_flag
let set_tracing b = Atomic.set tracing_flag b
let flight_on () = Atomic.get flight_flag
let set_flight b = Atomic.set flight_flag b

type config = { cfg_trace : string option; cfg_metrics_dump : bool; cfg_flight : bool }

let configure cfg =
  trace_path := cfg.cfg_trace;
  Atomic.set tracing_flag (cfg.cfg_trace <> None);
  Atomic.set metrics_dump_flag cfg.cfg_metrics_dump;
  Atomic.set flight_flag cfg.cfg_flight

let current_config () =
  { cfg_trace = !trace_path; cfg_metrics_dump = Atomic.get metrics_dump_flag;
    cfg_flight = Atomic.get flight_flag }

(* ---------- spans ---------- *)

let push_event sh ev =
  if sh.sh_ev_len >= event_cap then sh.sh_ev_dropped <- sh.sh_ev_dropped + 1
  else begin
    if sh.sh_ev_len >= Array.length sh.sh_events then begin
      let n' = max 1024 (min event_cap (2 * max 1 (Array.length sh.sh_events))) in
      let a = Array.make n' dummy_event in
      Array.blit sh.sh_events 0 a 0 sh.sh_ev_len;
      sh.sh_events <- a
    end;
    sh.sh_events.(sh.sh_ev_len) <- ev;
    sh.sh_ev_len <- sh.sh_ev_len + 1
  end

let emit_span ?(cat = "") ?(args = []) ~name ~t0 ~dur () =
  if Atomic.get tracing_flag then begin
    let sh = my_shard () in
    push_event sh
      {
        ev_tid = sh.sh_id;
        ev_name = name;
        ev_cat = cat;
        ev_ts_us = to_rel_us t0;
        ev_dur_us = dur *. 1e6;
        ev_args = args;
      }
  end

let span ?cat ?args name f =
  if not (Atomic.get tracing_flag) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () = emit_span ?cat ?args ~name ~t0 ~dur:(Unix.gettimeofday () -. t0) () in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let timed ?cat ?args name f =
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    emit_span ?cat ?args ~name ~t0 ~dur:dt ();
    dt
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let record m f =
  incr m;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    observe m dt;
    if Atomic.get tracing_flag then begin
      let name = metric_name m in
      let cat = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
      emit_span ~cat ~name ~t0 ~dur:dt ()
    end
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let events () =
  let evs =
    List.concat_map (fun sh -> Array.to_list (Array.sub sh.sh_events 0 sh.sh_ev_len)) (shards ())
  in
  (* At equal start timestamps (sub-µs spans), the longer span is the
     enclosing one — ordering it first preserves nesting. *)
  List.sort
    (fun a b ->
      match compare a.ev_ts_us b.ev_ts_us with
      | 0 -> compare b.ev_dur_us a.ev_dur_us
      | c -> c)
    evs

let dropped_events () = List.fold_left (fun acc sh -> acc + sh.sh_ev_dropped) 0 (shards ())

(* ---------- flight recorder ---------- *)

let flight_seq = Atomic.make 0

let push_flight sh fr =
  if sh.sh_fl_len < flight_cap then begin
    if sh.sh_fl_len >= Array.length sh.sh_flight then begin
      let n' = max 1024 (min flight_cap (2 * max 1 (Array.length sh.sh_flight))) in
      let a = Array.make n' dummy_flight in
      Array.blit sh.sh_flight 0 a 0 sh.sh_fl_len;
      sh.sh_flight <- a
    end;
    sh.sh_flight.(sh.sh_fl_len) <- fr;
    sh.sh_fl_len <- sh.sh_fl_len + 1
  end

let flight_record ~op ?(degree = 1) ~level ~limbs ~scale_bits ~budget_bits () =
  if Atomic.get flight_flag then begin
    let seq = Atomic.fetch_and_add flight_seq 1 in
    push_flight (my_shard ())
      { fl_seq = seq; fl_op = op; fl_degree = degree; fl_level = level; fl_limbs = limbs;
        fl_scale_bits = scale_bits; fl_budget_bits = budget_bits }
  end

let flight_records () =
  let recs =
    List.concat_map (fun sh -> Array.to_list (Array.sub sh.sh_flight 0 sh.sh_fl_len)) (shards ())
  in
  List.sort (fun a b -> compare a.fl_seq b.fl_seq) recs

(* ---------- snapshot / windows ---------- *)

type metric_stats = {
  st_name : string;
  st_count : int;
  st_total : float;
  st_min : float;
  st_max : float;
  st_p50 : float;
  st_p99 : float;
  st_p999 : float;
}

type snapshot = { snap_domains : int; snap_metrics : metric_stats list; snap_dropped : int }

(* A window baseline: merged counters and sketches captured at one moment,
   indexed by metric id. Deltas subtract it bucket-wise — no reset, so
   concurrent recorders are never raced. *)
type window = {
  w_counts : int array;
  w_sketches : Qsketch.t option array;
  w_dropped : int;
}

let capture_window () =
  let n = num_metrics () in
  {
    w_counts = Array.init n count_of;
    w_sketches = Array.init n merged_sketch;
    w_dropped = dropped_events ();
  }

let baseline = capture_window

let window_get w id =
  if id < Array.length w.w_counts then (w.w_counts.(id), w.w_sketches.(id)) else (0, None)

let empty_window = { w_counts = [||]; w_sketches = [||]; w_dropped = 0 }

let stats_of_sketch ~name ~count q =
  let scount = match q with Some q -> Qsketch.count q | None -> 0 in
  if count = 0 && scount = 0 then None
  else
    match q with
    | Some q when Qsketch.count q > 0 ->
      Some
        {
          st_name = name;
          st_count = max count scount;
          st_total = Qsketch.sum q;
          st_min = Qsketch.min_v q;
          st_max = Qsketch.max_v q;
          st_p50 = Qsketch.quantile q 0.5;
          st_p99 = Qsketch.quantile q 0.99;
          st_p999 = Qsketch.quantile q 0.999;
        }
    | _ ->
      Some
        {
          st_name = name;
          st_count = count;
          st_total = 0.0;
          st_min = 0.0;
          st_max = 0.0;
          st_p50 = 0.0;
          st_p99 = 0.0;
          st_p999 = 0.0;
        }

(* Delta of one metric between a baseline window and a current capture. *)
let delta_metric base cur (name, id) =
  let bc, bq = window_get base id in
  let cc, cq = window_get cur id in
  let dq =
    match (cq, bq) with
    | None, _ -> None
    | Some c, None -> Some (Qsketch.copy c)
    | Some c, Some b -> if Qsketch.count b = 0 then Some (Qsketch.copy c) else Some (Qsketch.diff c b)
  in
  stats_of_sketch ~name ~count:(max 0 (cc - bc)) dq

let snapshot_since w =
  let cur = capture_window () in
  {
    snap_domains = List.length (shards ());
    snap_metrics = List.filter_map (delta_metric w cur) (registered_metrics ());
    snap_dropped = max 0 (cur.w_dropped - w.w_dropped);
  }

let snapshot () = snapshot_since empty_window

let find_stats snap name = List.find_opt (fun s -> s.st_name = name) snap.snap_metrics

(* ---------- JSON emission ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num v =
  (* JSON has no infinities; clamp sentinel min/max of empty histograms. *)
  if Float.is_nan v || v = infinity || v = neg_infinity then "0" else Printf.sprintf "%.6g" v

let snapshot_json snap =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" snap.snap_domains);
  Buffer.add_string buf (Printf.sprintf "  \"dropped_events\": %d,\n" snap.snap_dropped);
  Buffer.add_string buf
    (Printf.sprintf "  \"quantile_relative_error\": %s,\n" (json_num Qsketch.relative_error));
  Buffer.add_string buf "  \"metrics\": {";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      if s.st_total = 0.0 && s.st_min = 0.0 && s.st_max = 0.0 && s.st_p50 = 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "\n    \"%s\": {\"count\": %d}" (json_escape s.st_name) s.st_count)
      else
        Buffer.add_string buf
          (Printf.sprintf
             "\n    \"%s\": {\"count\": %d, \"total_s\": %s, \"min_s\": %s, \"max_s\": %s, \
              \"p50_s\": %s, \"p99_s\": %s, \"p999_s\": %s}"
             (json_escape s.st_name) s.st_count (json_num s.st_total) (json_num s.st_min)
             (json_num s.st_max) (json_num s.st_p50) (json_num s.st_p99) (json_num s.st_p999)))
    snap.snap_metrics;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let to_json () = snapshot_json (snapshot ())

let trace_json () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"schemaVersion\": ";
  Buffer.add_string buf (string_of_int schema_version);
  Buffer.add_string buf (Printf.sprintf ", \"droppedEvents\": %d" (dropped_events ()));
  Buffer.add_string buf ", \"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d"
           (json_escape ev.ev_name)
           (json_escape (if ev.ev_cat = "" then "default" else ev.ev_cat))
           ev.ev_ts_us ev.ev_dur_us ev.ev_tid);
      if ev.ev_args <> [] then begin
        Buffer.add_string buf ", \"args\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
          ev.ev_args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    (events ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_trace path =
  let oc = open_out path in
  output_string oc (trace_json ());
  close_out oc

(* ---------- periodic JSONL metrics flush ---------- *)

(* One line per flush: the WINDOW since the previous flush, as counter
   deltas plus serialized sketches. Sketch lines are mergeable across
   flushes, shards and processes (tools/ace_report.exe does exactly
   that), so a fleet's JSONL files aggregate to exact counts/sums and
   within-bound quantiles. All flush state lives behind [flush_m]; the
   flusher runs on its own domain so serving work is never blocked. *)

let flush_m = Mutex.create ()
let flush_stop = Atomic.make false
let flush_domain : unit Domain.t option ref = ref None
let flush_base = ref empty_window
let flush_seq = ref 0
let flush_path = ref ""

let flush_line_locked () =
  let cur = capture_window () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\":%d,\"ts\":%.6f,\"pid\":%d,\"seq\":%d,\"dropped_events\":%d,\"metrics\":{"
       schema_version (Unix.gettimeofday ()) (Unix.getpid ()) !flush_seq
       (max 0 (cur.w_dropped - !flush_base.w_dropped)));
  let first = ref true in
  List.iter
    (fun (name, id) ->
      let bc, bq = window_get !flush_base id in
      let cc, cq = window_get cur id in
      let dcount = max 0 (cc - bc) in
      let dq =
        match (cq, bq) with
        | None, _ -> None
        | Some c, None -> Some (Qsketch.copy c)
        | Some c, Some b ->
          if Qsketch.count b = 0 then Some (Qsketch.copy c) else Some (Qsketch.diff c b)
      in
      let has_samples = match dq with Some q -> Qsketch.count q > 0 | None -> false in
      if dcount > 0 || has_samples then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf (Printf.sprintf "\"%s\":{\"count\":%d" (json_escape name) dcount);
        (match dq with
        | Some q when Qsketch.count q > 0 ->
          Buffer.add_string buf ",\"sketch\":";
          Buffer.add_string buf (Qsketch.to_json q)
        | _ -> ());
        Buffer.add_char buf '}'
      end)
    (registered_metrics ());
  Buffer.add_string buf "}}\n";
  flush_base := cur;
  flush_seq := !flush_seq + 1;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 !flush_path
  in
  output_string oc (Buffer.contents buf);
  close_out oc

let flush_now () =
  Mutex.lock flush_m;
  let have_path = !flush_path <> "" in
  (try if have_path then flush_line_locked ()
   with e ->
     Mutex.unlock flush_m;
     raise e);
  Mutex.unlock flush_m

let flusher_loop interval =
  let slice = 0.05 in
  let rec go () =
    if not (Atomic.get flush_stop) then begin
      let remaining = ref interval in
      while !remaining > 0.0 && not (Atomic.get flush_stop) do
        let dt = if !remaining < slice then !remaining else slice in
        Unix.sleepf dt;
        remaining := !remaining -. dt
      done;
      if not (Atomic.get flush_stop) then begin
        (try flush_now () with _ -> ());
        go ()
      end
    end
  in
  go ()

let stop_metrics_flush () =
  match !flush_domain with
  | None -> ()
  | Some d ->
    Atomic.set flush_stop true;
    Domain.join d;
    flush_domain := None;
    (try flush_now () with _ -> ());
    Atomic.set flush_stop false

let metrics_flush ~interval ~path =
  if interval <= 0.0 then invalid_arg "Telemetry.metrics_flush: interval must be > 0";
  stop_metrics_flush ();
  Mutex.lock flush_m;
  flush_path := path;
  flush_base := capture_window ();
  Mutex.unlock flush_m;
  flush_domain := Some (Domain.spawn (fun () -> flusher_loop interval))

let metrics_flush_active () = !flush_domain <> None

(* ---------- reset ---------- *)

let reset_metrics () =
  List.iter
    (fun sh ->
      Array.fill sh.sh_counts 0 (Array.length sh.sh_counts) 0;
      Array.fill sh.sh_sketches 0 (Array.length sh.sh_sketches) None)
    (shards ());
  (* a pre-reset flush baseline would produce negative (clamped) windows *)
  Mutex.lock flush_m;
  flush_base := empty_window;
  Mutex.unlock flush_m

let reset_trace () =
  List.iter
    (fun sh ->
      sh.sh_ev_len <- 0;
      sh.sh_ev_dropped <- 0)
    (shards ())

let reset_flight () =
  List.iter (fun sh -> sh.sh_fl_len <- 0) (shards ());
  Atomic.set flight_seq 0

let reset_all () =
  reset_metrics ();
  reset_trace ();
  reset_flight ()

(* ---------- environment bootstrap ---------- *)

let () =
  let truthy = function Some ("1" | "true" | "yes" | "on") -> true | _ -> false in
  let trace = Sys.getenv_opt "ACE_TRACE" in
  let metrics = truthy (Sys.getenv_opt "ACE_METRICS") in
  let flight = truthy (Sys.getenv_opt "ACE_FLIGHT") in
  if trace <> None || metrics || flight then
    configure { cfg_trace = trace; cfg_metrics_dump = metrics; cfg_flight = flight };
  (match Sys.getenv_opt "ACE_METRICS_INTERVAL" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some dt when dt > 0.0 ->
      let path =
        match Sys.getenv_opt "ACE_METRICS_PATH" with
        | Some p when String.trim p <> "" -> p
        | _ -> "ace_metrics.jsonl"
      in
      metrics_flush ~interval:dt ~path
    | _ -> invalid_arg ("ACE_METRICS_INTERVAL must be a positive number of seconds, got " ^ s))
  | None -> ());
  at_exit (fun () ->
      (try stop_metrics_flush () with _ -> ());
      (match !trace_path with
      | Some p -> ( try write_trace p with _ -> ())
      | None -> ());
      if Atomic.get metrics_dump_flag then prerr_string (to_json ()))
