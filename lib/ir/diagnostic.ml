type kind =
  | No_returns
  | Undefined_value
  | Multiple_definition
  | Arity_mismatch
  | Type_mismatch
  | Level_violation
  | Slot_mismatch
  | Scale_mismatch
  | Level_mismatch
  | Limb_mismatch
  | Missing_rotation_key
  | Batch_aliasing
  | Bootstrap_range
  | Schedule_violation

type t = {
  d_kind : kind;
  d_pass : string;
  d_level : Level.t;
  d_node : int option;
  d_message : string;
}

let kind_name = function
  | No_returns -> "no-returns"
  | Undefined_value -> "undefined-value"
  | Multiple_definition -> "multiple-definition"
  | Arity_mismatch -> "arity-mismatch"
  | Type_mismatch -> "type-mismatch"
  | Level_violation -> "level-violation"
  | Slot_mismatch -> "slot-mismatch"
  | Scale_mismatch -> "scale-mismatch"
  | Level_mismatch -> "level-mismatch"
  | Limb_mismatch -> "limb-mismatch"
  | Missing_rotation_key -> "missing-rotation-key"
  | Batch_aliasing -> "batch-aliasing"
  | Bootstrap_range -> "bootstrap-range"
  | Schedule_violation -> "schedule-violation"

let to_string d =
  let where =
    match d.d_node with
    | Some id -> Printf.sprintf "node %%%d" id
    | None -> "function"
  in
  Printf.sprintf "[%s] %s/%s: %s: %s" (kind_name d.d_kind) d.d_pass
    (Level.to_string d.d_level) where d.d_message

(* Diagnostics accumulate in program order; a corrupted node must produce
   a diagnostic, never an escape of the exception the probe tripped on. *)
type collector = { mutable diags : t list; c_pass : string; c_level : Level.t }

let collector ~pass ~level = { diags = []; c_pass = pass; c_level = level }

let report c d_kind ?node fmt =
  Printf.ksprintf
    (fun d_message ->
      c.diags <-
        { d_kind; d_pass = c.c_pass; d_level = c.c_level; d_node = node; d_message } :: c.diags)
    fmt

let finish c = List.rev c.diags
