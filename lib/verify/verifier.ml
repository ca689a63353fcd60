module Sched = Ace_codegen.Sched
module Poly_ir = Ace_poly_ir.Poly_ir
open Ace_ir

exception Rejected of Diagnostic.t list

let errors_to_string ds = String.concat "\n" (List.map Diagnostic.to_string ds)

(* ---- schedules ---- *)

(* [Sched.check] fails with messages of the form "sched: ...: node 17
   reads ..."; recover the first node id after "node " so the
   diagnostic stays machine-matchable. *)
let node_of_message msg =
  let len = String.length msg in
  let rec find i =
    if i + 5 > len then None
    else if String.sub msg i 5 = "node " then
      let j = ref (i + 5) in
      let start = !j in
      while !j < len && msg.[!j] >= '0' && msg.[!j] <= '9' do
        incr j
      done;
      if !j > start then Some (int_of_string (String.sub msg start (!j - start)))
      else find (i + 1)
    else find (i + 1)
  in
  find 0

let schedule ~pass f sched =
  let c = Diagnostic.collector ~pass ~level:(Irfunc.level f) in
  (try Sched.check f sched with
  | Failure msg ->
    Diagnostic.report c Diagnostic.Schedule_violation ?node:(node_of_message msg) "%s" msg
  | ex ->
    Diagnostic.report c Diagnostic.Schedule_violation "schedule probe failed: %s"
      (Printexc.to_string ex));
  Diagnostic.finish c

(* ---- POLY level ---- *)

(* The statement IR names node values "t<id>" with limb/scratch suffixes
   ("t5.c0", "t5.dig"). Def-before-use at base-name granularity: every
   t-named operand must have been written (or declared, for parameters and
   cleartext values, which lower to "tN := ..." comments) by an earlier
   statement. Runtime globals ("ksk.a", "zero") and literal attributes
   ("scale=...") are not value names and are ignored. *)
let base_name s =
  let stem = match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s in
  let is_tnum =
    String.length stem >= 2
    && stem.[0] = 't'
    && (let ok = ref true in
        String.iter (fun ch -> if ch < '0' || ch > '9' then ok := false)
          (String.sub stem 1 (String.length stem - 1));
        !ok)
  in
  if is_tnum then Some stem else None

let poly ~pass (pf : Poly_ir.func) =
  let c = Diagnostic.collector ~pass ~level:Level.Poly in
  let defined = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defined p ()) pf.Poly_ir.poly_params;
  let define s = match base_name s with Some b -> Hashtbl.replace defined b () | None -> () in
  let use what s =
    match base_name s with
    | Some b when not (Hashtbl.mem defined b) ->
      Diagnostic.report c Diagnostic.Undefined_value
        "%s reads %s before any definition of %s" what s b
    | _ -> ()
  in
  let rec stmt = function
    | Poly_ir.Comment text ->
      (* "tN := ciphertext parameter" / ":= constant" / cleartext ops
         declare a value the DAG carried but POLY does not compute. *)
      (match String.index_opt text ' ' with
      | Some i when String.length text > i + 2 && String.sub text (i + 1) 2 = ":=" ->
        define (String.sub text 0 i)
      | _ -> ())
    | Poly_ir.For { bound; body; _ } ->
      (match bound with
      | Poly_ir.Num_q (name, _) -> use "loop bound" name
      | Poly_ir.Const_bound _ -> ());
      List.iter stmt body
    | Poly_ir.Hw { h_dst; h_op = _; h_args } ->
      List.iter (use ("hw op writing " ^ h_dst)) h_args;
      define h_dst
    | Poly_ir.Call { c_dst; c_op = _; c_args } ->
      List.iter (use ("call writing " ^ c_dst)) c_args;
      define c_dst
  in
  List.iter stmt pf.Poly_ir.body;
  List.iter (use "return") pf.Poly_ir.returns;
  Diagnostic.finish c

(* ---- composition ---- *)

let function_checks ~pass ?plan ?context f =
  let structural = Verify.well_formed ~pass f in
  if structural <> [] then structural
  else
    match (Irfunc.level f, context) with
    | Level.Ckks, Some ctx ->
      let abstract = Ace_ckks_ir.Scale_check.diagnose ~pass ?plan ctx f in
      if abstract <> [] then abstract
      else
        (* The release plan the VM builds in [Vm.prepare]. *)
        schedule ~pass f (Sched.sequential f)
    | _ -> []

let check_exn ~pass ?plan ?context f =
  match function_checks ~pass ?plan ?context f with
  | [] -> ()
  | ds -> raise (Rejected ds)

let poly_exn ~pass pf = match poly ~pass pf with [] -> () | ds -> raise (Rejected ds)

let () =
  Printexc.register_printer (function
    | Rejected ds ->
      Some
        (Printf.sprintf "Ace_verify.Verifier.Rejected:\n%s" (errors_to_string ds))
    | _ -> None)
