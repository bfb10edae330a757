(* stress: exploration alone, on shapes large enough that the graph
   engine, symmetry reduction and outcome expansion do all the work.
   One op is one [Enumerate.allowed_outcomes_stats] call on the default
   engine; its check is the size of the outcome set. *)

open Wmm_isa
open Wmm_model
open Common

let st loc v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm loc; order = Instr.Plain }
let ld r loc = Instr.Load { dst = r; addr = Instr.Imm loc; order = Instr.Plain }

(* IRIW with three writers per location. *)
let iriw3 =
  Program.make ~name:"IRIW+3w" ~location_names:[| "x"; "y" |]
    [
      [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |];
      [| st 1 4 |]; [| st 1 5 |]; [| st 1 6 |];
      [| ld 0 0; ld 1 1 |];
      [| ld 2 1; ld 3 0 |];
    ]

(* Six same-location writes across three threads, read twice. *)
let co_storm =
  Program.make ~name:"co-storm" ~location_names:[| "x" |]
    [
      [| st 0 1; st 0 2 |];
      [| st 0 3; st 0 4 |];
      [| st 0 5; st 0 6 |];
      [| ld 0 0; ld 1 0 |];
    ]

type case = { program : Program.t; model : Axiomatic.model; outcomes : int }

let cases =
  [|
    { program = iriw3; model = Axiomatic.Sc; outcomes = 2079 };
    { program = iriw3; model = Axiomatic.Arm; outcomes = 2304 };
    { program = iriw3; model = Axiomatic.Power; outcomes = 2304 };
    { program = co_storm; model = Axiomatic.Tso; outcomes = 108 };
    { program = co_storm; model = Axiomatic.Power; outcomes = 108 };
  |]

let explore c = Enumerate.allowed_outcomes_stats c.model c.program

let run_case t ?(timed = true) ?(op_id = -1) c =
  let a = now_s () in
  let n =
    try List.length (fst (Span.with_ ~op:op_id "model.explore" (fun () -> explore c)))
    with _ -> -1
  in
  let ms = (now_s () -. a) *. 1e3 in
  let msg () =
    Printf.sprintf "%s under %s: %d outcomes, expected %d" c.program.Program.name
      (Axiomatic.model_name c.model) n c.outcomes
  in
  if timed then op t ~lat_ms:ms (n = c.outcomes) msg else op t (n = c.outcomes) msg

let order (c : ctx) round =
  let a = Array.copy cases in
  shuffle ~seed:((c.seed * 6007) + round) a;
  a

let setup (_ : ctx) =
  Array.iter
    (fun c ->
      if List.length (fst (explore c)) <> c.outcomes then
        failwith "stress: the cold round failed its checks")
    cases

let run c () =
  let t = tally () in
  let rates =
    rounds c ~n:(if c.smoke then 8 else 800) ~ops_per_round:(Array.length cases) (fun r ->
        Array.iter (run_case t) (order c r))
  in
  e2e_report t ~rates ~rss_mb:(vm_hwm_mb "self")

let trace c () =
  let rounds = if c.smoke then 8 else 200 in
  let t = tally () in
  let op = ref 0 in
  let untraced_s, traced_s =
    interleave
      (Array.init rounds (order c))
      ~untraced:(Array.iter (fun cs -> ignore (explore cs)))
      ~traced:
        (Array.iter (fun cs ->
             incr op;
             Span.with_ ~op:!op "op.stress" (fun () -> run_case t ~op_id:!op cs)))
  in
  layer_report t
    ~counters:
      (model_counters ()
      @ trace_health ~untraced_s ~traced_s ~covered_s:(covered_s [ "model.explore" ]))
