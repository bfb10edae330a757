open Wmm_machine

type result = { stream : Uop.packed array; eliminated : int }

let strength : Uop.Kind.t -> int option = function
  | Fence_full -> Some 3
  | Fence_lw -> Some 2
  | Fence_load | Fence_store -> Some 1
  | _ -> None

let subsumes a b =
  match (strength a, strength b) with
  | Some _, None | None, _ -> false
  | Some _, Some _ -> (
      if a = b then true
      else
        match (a, b) with
        | Uop.Kind.Fence_full, _ -> true
        | Fence_lw, (Fence_load | Fence_store) -> true
        | _ -> false)

(* A "run" is a maximal sequence of micro-ops with no memory access:
   fences within one run order the same accesses, so any fence
   subsumed by another fence of the run is redundant.  The pipeline
   fence (isb) is a hard boundary: it is not a memory barrier and
   must not move or be merged. *)
let is_boundary w =
  match Uop.kind w with
  | Load | Store | Load_acquire | Store_release | Counter_shared | Counter_private
  | Fence_pipeline ->
      true
  | _ -> false

let is_fence w = strength (Uop.kind w) <> None

let eliminate ?probe stream =
  let probe = Option.map Uop.pack probe in
  let eliminated = ref 0 in
  let out = ref [] in
  let emit w = out := w :: !out in
  let flush_run run =
    let ops = List.rev run in
    let fences = List.filter is_fence ops in
    (* The minimal set of fences with the same ordering power as the
       whole run: one full fence beats everything; otherwise one
       lwsync beats the load/store fences; otherwise at most one each
       of the load and store fences. *)
    let fence k = Uop.make k 0 in
    let has k = List.mem (fence k) fences in
    let survivors =
      if has Fence_full then [ fence Fence_full ]
      else if has Fence_lw then [ fence Fence_lw ]
      else List.map fence (List.filter has [ Fence_load; Fence_store ])
    in
    eliminated := !eliminated + List.length fences - List.length survivors;
    (* Emit the survivors at the first fence position; later fence
       positions become probes (or vanish). *)
    let first_fence = ref true in
    List.iter
      (fun w ->
        if not (is_fence w) then emit w
        else if !first_fence then begin
          first_fence := false;
          List.iter emit survivors
        end
        else Option.iter emit probe)
      ops
  in
  let run = ref [] in
  Array.iter
    (fun w ->
      if is_boundary w then begin
        flush_run !run;
        run := [];
        emit w
      end
      else run := w :: !run)
    stream;
  flush_run !run;
  { stream = Array.of_list (List.rev !out); eliminated = !eliminated }

let optimise_streams ?probe streams =
  let total = ref 0 in
  let optimised =
    Array.map
      (fun stream ->
        let r = eliminate ?probe stream in
        total := !total + r.eliminated;
        r.stream)
      streams
  in
  (optimised, !total)
