(* serve-gemv: the shipped ace_serve daemon, in its own process, serves
   gemv:16:4 at batch 8 with coalescing on and no artifact cache to one
   tenant. The wire codec, the select loop, admission and coalescing
   carry most of each request; there is no bootstrap and no compile on
   the request path. Three phases, on one connection:

   - saturation: closed loop, a fixed window of requests in flight;
   - low: open loop, Poisson arrivals well under the rate one request at
     a time can sustain, so requests mostly run alone;
   - high: open loop, Poisson arrivals above that rate but under the
     coalesced saturation rate, so the daemon must merge requests onto
     the batch axis to keep up.

   Low and high use the serve layer two ways (solo path, batch-axis
   merge), so a gain for one that costs the other shows. Open-loop
   latency runs from each request's due time, which counts the wait a
   stall imposes on later requests. *)

open Common
module Client = Ace_serve.Client
module Wire = Ace_serve.Wire
module Model_spec = Ace_serve.Model_spec
module Pipeline = Ace_driver.Pipeline
module Json = Ace_telemetry.Json_lite
module Qsketch = Ace_telemetry.Qsketch

let spec_str = "gemv:16:4"
let model = "gemv"
let tenant = "perfbench"
let batch = 8

(* A served result is the exact model's output up to CKKS noise. *)
let result_bound = 1e-3

(* Load shape. On a 2-core host one request alone takes about 45 ms
   (about 22 req/s), and the saturation phase completes 100-140 req/s by
   coalescing. *)
let window = 16
let low_rps = 8.0
let high_rps = 60.0

(* Share of the run time each phase gets, over [cycles] rounds of the
   three phases; the saturation phase's request count assumes
   [sat_nominal_rps]. Request counts are fixed per run length, so every
   run reports the same tail percentile; at 30 s the low phase's 156
   requests support p90 and the high phase's 360 p95. *)
let cycles = 4
let sat_share = 0.15
let sat_nominal_rps = 120.0
let low_share = 0.65
let high_share = 0.2

(* Distinct encrypted payloads, reused round-robin; a multiple of the
   batch so payload [j] always sits in region [j mod batch]. *)
let payload_count = 32

type daemon = { pid : int; conn : Client.t; session : Client.session }

(* ---------- daemon lifecycle ---------- *)

let spawn ~exe ~sock ~env =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let argv =
    [| exe; "--socket"; sock; "--model"; model ^ "=" ^ spec_str; "--batch"; string_of_int batch |]
  in
  Unix.create_process_env exe argv env Unix.stdin Unix.stderr Unix.stderr

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Spawn to the first Hello reply: the socket accepts and the model is
   compiled. *)
let wait_ready pid sock =
  let deadline = now () +. 60.0 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "ace_serve exited during start-up");
    match Client.connect sock with
    | conn -> (
      match Client.hello ~client:"perfbench" conn with
      | Ok _ -> conn
      | Error m -> failwith ("hello: " ^ m))
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if now () > deadline then failwith "ace_serve not ready after 60 s";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let ok what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* One set-up: spawn, ready, Client.prepare (keygen + key upload).
   Returns the daemon and the two parts' durations. *)
let start ~exe ~sock ~env ~seed =
  let t0 = now () in
  let pid = spawn ~exe ~sock ~env in
  try
    let conn = span "serve.daemon_ready" (fun () -> wait_ready pid sock) in
    let t1 = now () in
    let session =
      span "client.prepare" (fun () ->
          ok "prepare"
            (Client.prepare conn ~tenant ~model ~key_seed:seed ~oracle_seed:(seed + 1)))
    in
    ({ pid; conn; session }, t1 -. t0, now () -. t1)
  with e ->
    kill pid;
    raise e

let stop d =
  (match Client.drain d.conn with
  | Ok () -> ()
  | Error m -> log "drain: %s" m);
  Client.close d.conn;
  reap d.pid

(* ---------- load ---------- *)

type payload = { input : float array; region : int; blob : string }

type outcome = {
  id : string;
  due : float;
  mutable sent : float;
  mutable received : float;
  mutable reply : string option;  (** the result's ciphertext blob *)
}

(* [phase] names the phase and its cycle, so every id of a run is
   unique; the number after the dash indexes the cycle's outcomes. *)
let request_id phase i = Printf.sprintf "%s-%d" phase i

let index_of_id id =
  let i = String.index id '-' + 1 in
  int_of_string (String.sub id i (String.length id - i))

let submit d (p : payload) ~id =
  span ~id "client.submit" (fun () ->
      Client.submit d.conn d.session ~request_id:id ~region:p.region ~coalesce:true p.blob)

(* Read one reply and file it under its request. Overloaded and error
   replies carry no request id: the request they answer is left without
   a result, which counts as failed. *)
let receive d outcomes =
  let r = Client.await d.conn in
  let t = now () in
  match r with
  | Ok (Wire.Result { request_id; ct }) ->
    let o = outcomes.(index_of_id request_id) in
    o.received <- t;
    o.reply <- Some ct
  | Ok (Wire.Overloaded _) -> log "FAIL: overloaded reply"
  | Ok (Wire.Err { code; message }) ->
    log "FAIL: %s: %s" (Wire.error_code_name code) message
  | Ok _ -> log "FAIL: unexpected reply type"
  | Error m -> failwith ("reply: " ^ m)

let closed_loop d payloads ~phase n =
  let outcomes =
    Array.init n (fun i ->
        { id = request_id phase i; due = 0.0; sent = 0.0; received = 0.0; reply = None })
  in
  let send i =
    outcomes.(i).sent <- now ();
    submit d payloads.(i mod Array.length payloads) ~id:outcomes.(i).id
  in
  let t0 = now () in
  for i = 0 to min window n - 1 do
    send i
  done;
  for k = 0 to n - 1 do
    receive d outcomes;
    if k + window < n then send (k + window)
  done;
  (outcomes, now () -. t0)

(* Due times of a Poisson process at [rate], from the seed. *)
let poisson_dues ~rng ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Ace_util.Rng.float rng 1.0 in
      t := !t -. (Stdlib.log (1.0 -. u) /. rate);
      !t)

(* Open loop: this thread sends on schedule, a second thread reads the
   replies, both on the one connection. *)
let open_loop d payloads ~phase ~offsets =
  let n = Array.length offsets in
  let t0 = now () +. 0.05 in
  let outcomes =
    Array.mapi
      (fun i off ->
        { id = request_id phase i; due = t0 +. off; sent = 0.0; received = 0.0; reply = None })
      offsets
  in
  let reader = Thread.create (fun () -> for _ = 1 to n do receive d outcomes done) () in
  Array.iteri
    (fun i o ->
      let wait = o.due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      o.sent <- now ();
      submit d payloads.(i mod Array.length payloads) ~id:o.id)
    outcomes;
  Thread.join reader;
  outcomes

let stats d = ok "get_stats" (Client.get_stats d.conn)

let latencies_ms outcomes =
  Array.to_list outcomes
  |> List.filter (fun o -> o.reply <> None)
  |> List.map (fun o -> (o.received -. o.due) *. 1e3)

(* Decrypt every served result and check it against the cleartext model.
   Returns the decrypt times in seconds. *)
let check_results d payloads expected outcomes =
  let times = ref [] in
  Array.iteri
    (fun i o ->
      let j = i mod Array.length payloads in
      let what = Printf.sprintf "request %d" i in
      match o.reply with
      | None -> check ~what:(what ^ ": no result") false
      | Some blob -> (
        let out, dt =
          timed (fun () -> Client.decrypt d.session ~region:payloads.(j).region blob)
        in
        times := dt :: !times;
        match out with
        | Error m -> check ~what:(what ^ ": " ^ m) false
        | Ok v ->
          let err = ref 0.0 in
          Array.iteri (fun k x -> err := Float.max !err (Float.abs (x -. expected.(j).(k)))) v;
          check
            ~what:(Printf.sprintf "%s: max |served - reference| %.3g > %g" what !err result_bound)
            (!err <= result_bound)))
    outcomes;
  !times

(* One phase's requests over every cycle, with the daemon's Get_stats
   counts between its start and end. *)
type phase = {
  outcomes : outcome array;
  rates : float list;  (** requests per second of each cycle *)
  served : int;
  merged : int;  (** requests that rode on another request's execution *)
  rejected : int;
}

let no_requests = { outcomes = [||]; rates = []; served = 0; merged = 0; rejected = 0 }

let requests_per_exec p =
  if p.served = p.merged then 0.0 else float_of_int p.served /. float_of_int (p.served - p.merged)

type phases = {
  sat : phase;
  low : phase;
  high : phase;
  encrypt_times : float list;
  decrypt_times : float list;
  payloads : payload array;  (** the last phase's *)
}

(* The three phases, in [cycles] short rounds so that each phase's
   samples are spread over the run instead of sitting in one stretch of
   the host's load. Each phase encrypts its own payload pool first and
   checks its results after, both outside the load. *)
let run_phases ~seed ~seconds spec d =
  let s = float_of_int seconds in
  let rng = Ace_util.Rng.create seed in
  let n_in = Model_spec.input_elems spec in
  let inputs =
    Array.init payload_count (fun _ -> Array.init n_in (fun _ -> Ace_util.Rng.float rng 2.0 -. 1.0))
  in
  let expected = Array.map (Model_spec.reference spec) inputs in
  let per_cycle share rate =
    max 5 (int_of_float (Float.round (share *. s *. rate /. float_of_int cycles)))
  in
  let encs = ref [] and decs = ref [] and last = ref [||] and round = ref 0 in
  let phase acc load =
    let k = !round in
    incr round;
    let payloads =
      Array.mapi
        (fun j input ->
          let region = j mod batch in
          let blob, dt =
            timed (fun () ->
                Client.encrypt_region d.session ~seed:((seed * 7919) + (k * payload_count) + j)
                  ~region input)
          in
          encs := dt :: !encs;
          { input; region; blob })
        inputs
    in
    let s0 = stats d in
    let outcomes, wall = load payloads in
    let s1 = stats d in
    decs := check_results d payloads expected outcomes @ !decs;
    last := payloads;
    acc :=
      {
        outcomes = Array.append !acc.outcomes outcomes;
        rates = (float_of_int (Array.length outcomes) /. wall) :: !acc.rates;
        served = !acc.served + s1.sv_served - s0.sv_served;
        merged = !acc.merged + s1.sv_coalesced - s0.sv_coalesced;
        rejected = !acc.rejected + s1.sv_rejected - s0.sv_rejected;
      }
  in
  let sat = ref no_requests and low = ref no_requests and high = ref no_requests in
  let open_phase name rate share p =
    let offsets = poisson_dues ~rng ~rate (per_cycle share rate) in
    timed (fun () -> open_loop d p ~phase:name ~offsets)
  in
  for k = 1 to cycles do
    let name phase = phase ^ string_of_int k in
    phase sat (fun p -> closed_loop d p ~phase:(name "sat") (per_cycle sat_share sat_nominal_rps));
    phase low (open_phase (name "low") low_rps low_share);
    phase high (open_phase (name "high") high_rps high_share)
  done;
  { sat = !sat; low = !low; high = !high; encrypt_times = !encs; decrypt_times = !decs;
    payloads = !last }

(* The median cycle's rate, so that one cycle caught by a stall on the
   host does not move the run's figure. *)
let sat_rps ph = median ph.sat.rates

(* ---------- the daemon's own metric flush ---------- *)

(* Merge the JSONL windows the daemon flushed (ACE_METRICS_INTERVAL) into
   one sketch per metric, as tools/ace_report does. *)
let flushed_sketches path =
  let tbl = Hashtbl.create 16 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.member "metrics" (Json.parse line) with
         | Some (Json.Obj entries) ->
           List.iter
             (fun (name, entry) ->
               match Json.member "sketch" entry with
               | Some sk -> (
                 let q = Qsketch.of_json sk in
                 match Hashtbl.find_opt tbl name with
                 | Some dst -> Qsketch.merge dst q
                 | None -> Hashtbl.replace tbl name q)
               | None -> ())
             entries
         | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let sketch_quantile tbl name p =
  match Hashtbl.find_opt tbl name with
  | Some q when Qsketch.count q > 0 -> Qsketch.quantile q p
  | _ -> failwith ("daemon flushed no " ^ name)

let trace_dropped trace =
  match Json.member "droppedEvents" trace with
  | Some (Json.Num n) -> int_of_float n
  | _ -> failwith "daemon trace: no droppedEvents"

(* Each request's execution time in the daemon, in ms, from the
   request.batch spans of its ACE_TRACE file: a coalesced execution
   lists every request it carried in its request_ids. *)
let exec_ms_by_request trace =
  let tbl = Hashtbl.create 256 in
  (match Json.member "traceEvents" trace with
  | Some (Json.Arr evs) ->
    List.iter
      (fun ev ->
        match (Json.member "name" ev, Json.member "dur" ev, Json.member "args" ev) with
        | Some (Json.Str "request.batch"), Some (Json.Num dur_us), Some args -> (
          match Json.member "request_ids" args with
          | Some (Json.Str ids) ->
            List.iter (fun id -> Hashtbl.replace tbl id (dur_us /. 1e3)) (String.split_on_char ',' ids)
          | _ -> ())
        | _ -> ())
      evs
  | _ -> failwith "daemon trace: no traceEvents");
  tbl

(* ---------- in-process probes ---------- *)

(* The codecs on a real request: Fhe_wire on its ciphertext, Wire on its
   Infer frame. *)
let codec_rows ~seed (session : Client.session) (p : payload) =
  let ctx = session.Client.context in
  let ct = ok "decode_ct" (Ace_fhe.Fhe_wire.decode_ct ctx p.blob) in
  let us s = s *. 1e6 in
  layer "fhe.ct_encode_us" "us"
    (us (probe ~reps:21 "fhe_wire.encode_ct" (fun () -> Ace_fhe.Fhe_wire.encode_ct ctx ct)));
  layer "fhe.ct_decode_us" "us"
    (us (probe ~reps:21 "fhe_wire.decode_ct" (fun () -> Ace_fhe.Fhe_wire.decode_ct ctx p.blob)));
  let req =
    Wire.Infer
      { tenant; model; request_id = request_id "probe" seed; region = p.region; coalesce = true;
        ct = p.blob }
  in
  let frame = probe ~reps:21 "wire.encode_request" (fun () -> Wire.encode_request req) in
  let bytes = Wire.encode_request req in
  let decode () =
    match Wire.parse_header bytes with
    | Ok h ->
      Wire.decode_request h.Wire.h_type
        (String.sub bytes Wire.frame_header_bytes (String.length bytes - Wire.frame_header_bytes))
    | Error _ -> failwith "probe frame: bad header"
  in
  layer "serve.frame_encode_us" "us" (us frame);
  layer "serve.frame_decode_us" "us" (us (probe ~reps:21 "wire.decode_request" decode));
  layer "serve.ct_bytes" "bytes" (float_of_int (String.length p.blob))

(* The served program, compiled and executed in this process the way the
   daemon does it (ACE strategy, batch 8, resident runtime): compile
   attribution, schedule counts, op costs and the execution itself. *)
let program_rows ~seed spec =
  let nn, build_s = Telemetry.timed ~cat:"bench" "nn.build" (fun () -> Model_spec.nn spec) in
  layer "nn.build_s" "s" build_s;
  let c, compile_run = Layers.compile ~id:model ~batch nn in
  Layers.compile_rows [ compile_run ];
  Layers.verify_rows [ Layers.verify_probe ~id:model c ];
  Layers.program_rows [ Layers.program_counts c ];
  let keys = span "pipeline.make_keys" (fun () -> Pipeline.make_keys c ~seed) in
  let rt = span "pipeline.make_runtime" (fun () -> Pipeline.make_runtime c keys ~seed) in
  let input = Array.init (Model_spec.input_elems spec) (fun i -> float_of_int i /. 16.0) in
  let ct = Pipeline.encrypt_input c keys ~seed input in
  let run () = Pipeline.run_encrypted_rt rt ct in
  let exec i =
    snd (Telemetry.timed ~cat:"bench" ~args:[ ("id", string_of_int i) ] "pipeline.run_encrypted_rt" run)
  in
  layer "driver.first_infer_s" "s" (exec 0);
  let level = Layers.median_op_level run in
  let rc = Layers.start_counters () in
  let times = List.init 15 (fun i -> Layers.counted rc (fun () -> exec (i + 1))) in
  let run_s = median times in
  layer "serve.exec_ms" "ms" (1e3 *. run_s);
  Layers.counter_rows rc;
  let costs = Layers.fhe_rows ~seed ~level c keys in
  Layers.vm_residual c costs ~run_s

(* ---------- the workload ---------- *)

let run ~seed ~seconds ~trace ~exe ~out ~tag =
  if exe = "" then failwith "serve-gemv needs --serve-exe";
  let spec = ok "model spec" (Model_spec.parse spec_str) in
  let sock = Filename.concat out (tag ^ ".sock") in
  let env = Unix.environment () in
  (* The in-process probes go first: nothing has built the model yet. *)
  if trace then begin
    Telemetry.set_tracing true;
    program_rows ~seed spec;
    Telemetry.set_tracing false
  end;
  (* Set-up five times; the last daemon stays up for the phases. *)
  let setups =
    List.init 5 (fun i ->
        let d, ready, prepare = start ~exe ~sock ~env ~seed in
        if i < 4 then stop d;
        (d, ready, prepare))
  in
  let d, _, _ = List.nth setups 4 in
  let ph, rss =
    Fun.protect
      ~finally:(fun () -> try stop d with _ -> kill d.pid)
      (fun () ->
        let ph = run_phases ~seed ~seconds spec d in
        (ph, peak_rss_mb (string_of_int d.pid)))
  in
  e2e ~note:"median of 5: spawn to ready, then Client.prepare" "setup_s" "s"
    (median (List.map (fun (_, r, p) -> r +. p) setups));
  e2e "encrypt_p50_ms" "ms" (1e3 *. median ph.encrypt_times);
  e2e "decrypt_p50_ms" "ms" (1e3 *. median ph.decrypt_times);
  e2e
    ~note:(Printf.sprintf "%d requests, window %d" (Array.length ph.sat.outcomes) window)
    "serve.sat_rps" "req/s" (sat_rps ph);
  let latency_rows name p rate =
    let lat = latencies_ms p.outcomes in
    e2e
      ~note:(Printf.sprintf "%.0f req/s Poisson, %d requests" rate (Array.length p.outcomes))
      ("serve." ^ name ^ ".p50_ms") "ms" (median lat);
    let pct, v, n = tail lat in
    e2e ~note:(Printf.sprintf "p%g of %d" (pct *. 100.0) n) ("serve." ^ name ^ ".tail_ms") "ms" v
  in
  latency_rows "low" ph.low low_rps;
  latency_rows "high" ph.high high_rps;
  e2e ~note:"VmHWM of the daemon" "peak_rss_mb" "MB" rss;
  if trace then begin
    let lateness outcomes =
      Array.to_list (Array.map (fun o -> (o.sent -. o.due) *. 1e3) outcomes)
    in
    layer "serve.daemon_ready_s" "s" (median (List.map (fun (_, r, _) -> r) setups));
    layer "serve.put_keys_s" "s" (median (List.map (fun (_, _, p) -> p) setups));
    layer "serve.sat.requests_per_exec" "ratio" (requests_per_exec ph.sat);
    layer "serve.low.requests_per_exec" "ratio" (requests_per_exec ph.low);
    layer "serve.high.requests_per_exec" "ratio" (requests_per_exec ph.high);
    layer "loadgen.late_p99_ms" "ms"
      (percentile (lateness ph.low.outcomes @ lateness ph.high.outcomes) 0.99);
    (* A second daemon with tracing and the metric flush on runs the same
       phases; the first one's saturation throughput is the untraced
       baseline. *)
    Telemetry.set_tracing true;
    let flush = Filename.concat out (tag ^ ".daemon.jsonl") in
    let dtrace = Filename.concat out (tag ^ ".daemon.trace.json") in
    (try Sys.remove flush with Sys_error _ -> ());
    let env =
      Array.append env
        [| "ACE_METRICS_INTERVAL=0.5"; "ACE_METRICS_PATH=" ^ flush; "ACE_TRACE=" ^ dtrace |]
    in
    let td, _, _ = start ~exe ~sock ~env ~seed in
    let tph =
      Fun.protect
        ~finally:(fun () -> try stop td with _ -> kill td.pid)
        (fun () -> run_phases ~seed ~seconds spec td)
    in
    layer "trace.overhead_ratio" "ratio" (sat_rps ph /. sat_rps tph);
    let sketches = flushed_sketches flush in
    let daemon_trace = Json.parse_file dtrace in
    let dropped = trace_dropped daemon_trace in
    check ~what:(Printf.sprintf "daemon trace dropped %d events" dropped) (dropped = 0);
    (* What a high-phase request spends in the daemon besides its own
       execution: its round trip minus the span of the execution that
       carried it. *)
    let exec_ms = exec_ms_by_request daemon_trace in
    let waits =
      Array.to_list tph.high.outcomes
      |> List.filter (fun o -> o.reply <> None)
      |> List.map (fun o ->
             match Hashtbl.find_opt exec_ms o.id with
             | Some e -> ((o.received -. o.sent) *. 1e3) -. e
             | None -> failwith ("daemon trace: no request.batch span carries " ^ o.id))
    in
    layer "serve.wait_p50_ms" "ms" (median waits);
    layer "serve.queue_depth_p99" "count" (sketch_quantile sketches "serve.queue_depth" 0.99);
    let rejected = List.fold_left (fun acc p -> acc + p.rejected) 0 in
    layer "serve.rejected" "count"
      (float_of_int (rejected [ ph.sat; ph.low; ph.high; tph.sat; tph.low; tph.high ]));
    codec_rows ~seed d.session ph.payloads.(0)
  end
