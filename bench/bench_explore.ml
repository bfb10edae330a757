(* Perf baseline for the exploration core.

   v3: graph engine against reference.  For every case the graph
   engine ([Enumerate.allowed_outcomes_stats]) and the
   generate-and-filter [Enumerate.Reference] path are run over the
   full litmus library and a set of synthetic IRIW-class worst cases;
   outcome sets are asserted identical per program; with --out the
   result is written as JSON (the checked-in copy is
   BENCH_explore.json).

   Usage: bench_explore [--out FILE] [--expected FILE] [--reps N]
                        [--no-reference] [--write-expected FILE]
                        [--assert-optimal]

   --expected FILE asserts the deterministic exploration counts
   (explored / consistent / outcomes / revisits / symmetry-skips)
   against a checked-in table and exits non-zero on drift;
   --assert-optimal additionally fails if any case wastes work
   (explored > consistent).  CI runs both under WMM_FAST=1.  The
   counts do not depend on WMM_FAST - only the repetition count
   does.  --no-reference skips the reference path, and with it the
   outcome-set check. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus

let fast () = Sys.getenv_opt "WMM_FAST" <> None

(* ------------------------------------------------------------------ *)
(* Synthetic worst cases.  The library's tests are small enough that
   the whole 44-test sweep takes milliseconds; these scale the rf/co
   space up to where exploration cost dominates.                       *)
(* ------------------------------------------------------------------ *)

let st loc v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm loc; order = Instr.Plain }
let ld r loc = Instr.Load { dst = r; addr = Instr.Imm loc; order = Instr.Plain }

(* IRIW scaled: three writers per location and two reader threads -
   every read has 4 candidate writes and both locations carry 3!
   coherence orders per extra write interleaving.  Written values are
   location-private (x gets 1-3, y gets 4-6), the usual litmus
   convention for multi-write tests, which also puts each writer
   triple in the graph engine's renamed symmetry tier. *)
let iriw3 =
  Program.make ~name:"IRIW+3w" ~location_names:[| "x"; "y" |]
    [
      [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |];
      [| st 1 4 |]; [| st 1 5 |]; [| st 1 6 |];
      [| ld 0 0; ld 1 1 |];
      [| ld 2 1; ld 3 0 |];
    ]

(* Six same-location writes across three threads: 6! / (2!)^3 = 90
   coherence interleavings x 7 rf candidates per read. *)
let co_storm =
  Program.make ~name:"co-storm" ~location_names:[| "x" |]
    [
      [| st 0 1; st 0 2 |];
      [| st 0 3; st 0 4 |];
      [| st 0 5; st 0 6 |];
      [| ld 0 0; ld 1 0 |];
    ]

(* ------------------------------------------------------------------ *)
(* Cases.                                                              *)
(* ------------------------------------------------------------------ *)

type case = {
  name : string;
  model : Axiomatic.model;
  programs : Program.t list;  (* aggregated when more than one *)
}

let cases =
  let lib = List.map (fun t -> t.Test.program) Library.all in
  let lib_cases =
    List.map
      (fun m ->
        { name = Printf.sprintf "library-%d" (List.length lib); model = m; programs = lib })
      Axiomatic.all_models
  in
  let prog name = (Option.get (Library.by_name name)).Test.program in
  let single name m p = { name; model = m; programs = [ p ] } in
  lib_cases
  @ [
      single "IRIW" Axiomatic.Sc (prog "IRIW");
      single "IRIW" Axiomatic.Arm (prog "IRIW");
      single "IRIW" Axiomatic.Power (prog "IRIW");
      single "IRIW+addrs" Axiomatic.Power (prog "IRIW+addrs");
      single "IRIW+3w" Axiomatic.Sc iriw3;
      single "IRIW+3w" Axiomatic.Arm iriw3;
      single "IRIW+3w" Axiomatic.Power iriw3;
      single "co-storm" Axiomatic.Tso co_storm;
      single "co-storm" Axiomatic.Power co_storm;
    ]

type result = {
  case : case;
  outcomes : int;
  stats : Enumerate.stats;
  graph_s : float;
  ref_s : float option;
}

let time_reps reps f =
  let best = ref infinity in
  let out = ref None in
  for _ = 1 to reps do
    (* Start every rep from a settled heap: the un-timed verification
       sweeps otherwise leave garbage whose collection lands in
       whichever timed section runs next. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    out := Some v
  done;
  (Option.get !out, !best)

let add_stats (a : Enumerate.stats) (b : Enumerate.stats) =
  {
    Enumerate.generated = a.Enumerate.generated + b.Enumerate.generated;
    pruned = a.Enumerate.pruned + b.Enumerate.pruned;
    consistent = a.Enumerate.consistent + b.Enumerate.consistent;
    revisits = a.Enumerate.revisits + b.Enumerate.revisits;
    symmetry_skips = a.Enumerate.symmetry_skips + b.Enumerate.symmetry_skips;
    wall_s = a.Enumerate.wall_s +. b.Enumerate.wall_s;
  }

let sweep model programs =
  List.fold_left
    (fun (outs, acc) p ->
      let o, s = Enumerate.allowed_outcomes_stats model p in
      (* [allowed_outcomes] output is sorted already; re-sorting 2k+
         outcomes with a polymorphic compare would cost as much as the
         graph engine's whole search on the big cases. *)
      (outs @ [ o ], add_stats acc s))
    ([], Enumerate.zero_stats) programs

let run_case ~reps ~reference case =
  let (outs, stats), graph_s = time_reps reps (fun () -> sweep case.model case.programs) in
  let ref_s =
    if not reference then None
    else
      let ref_outs, dt =
        time_reps reps (fun () ->
            List.map (Enumerate.Reference.allowed_outcomes case.model) case.programs)
      in
      List.iteri
        (fun i (p : Program.t) ->
          if List.nth outs i <> List.nth ref_outs i then (
            Printf.eprintf "FATAL: %s/%s: graph and reference outcome sets differ on %s\n"
              case.name (Axiomatic.model_name case.model) p.Program.name;
            exit 1))
        case.programs;
      Some dt
  in
  let outcomes = List.fold_left (fun n o -> n + List.length o) 0 outs in
  { case; outcomes; stats; graph_s; ref_s }

(* ------------------------------------------------------------------ *)
(* Expected-count assertions.  One line per case: the exploration
   counts are deterministic, so any drift is a semantic change and
   must be re-baselined consciously.                                   *)
(* ------------------------------------------------------------------ *)

(* The key keeps its engine column so the table's lines stay stable. *)
let count_key r =
  Printf.sprintf "%s|%s|graph" r.case.name (Axiomatic.model_name r.case.model)

let counts_of r =
  Printf.sprintf "%d %d %d %d %d" r.stats.Enumerate.generated r.stats.Enumerate.consistent
    r.outcomes r.stats.Enumerate.revisits r.stats.Enumerate.symmetry_skips

let write_expected path results =
  let oc = open_out path in
  output_string oc
    "# case|model|engine explored consistent outcomes revisits symmetry_skips - \
     regenerate with bench_explore --write-expected\n";
  List.iter (fun r -> output_string oc (count_key r ^ " " ^ counts_of r ^ "\n")) results;
  close_out oc

let assert_expected path results =
  let ic = open_in path in
  let table = Hashtbl.create 16 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | Some i ->
             Hashtbl.replace table (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ()
     done
   with End_of_file -> close_in ic);
  let failures = ref 0 in
  List.iter
    (fun r ->
      let key = count_key r in
      let got = counts_of r in
      match Hashtbl.find_opt table key with
      | None ->
          incr failures;
          Printf.eprintf "EXPECTED-COUNTS: no entry for %s (got %s)\n" key got
      | Some want when want <> got ->
          incr failures;
          Printf.eprintf "EXPECTED-COUNTS: %s: expected %s, got %s\n" key want got
      | Some _ -> ())
    results;
  if !failures > 0 then (
    Printf.eprintf "EXPECTED-COUNTS: %d mismatches\n" !failures;
    exit 1)

(* The optimality gate: the graph engine must enumerate with zero
   waste (every execution it completes is consistent). *)
let assert_optimal results =
  let failures = ref 0 in
  List.iter
    (fun r ->
      let g = r.stats in
      if g.Enumerate.generated <> g.Enumerate.consistent then (
        incr failures;
        Printf.eprintf "OPTIMAL: %s|%s: graph explored %d but only %d consistent\n"
          r.case.name
          (Axiomatic.model_name r.case.model)
          g.Enumerate.generated g.Enumerate.consistent))
    results;
  if !failures > 0 then (
    Printf.eprintf "OPTIMAL: %d violations\n" !failures;
    exit 1)

(* ------------------------------------------------------------------ *)
(* JSON emission.                                                      *)
(* ------------------------------------------------------------------ *)

(* v3 drops v2's fields about the pruned engine and the routing to it
   (engine, pruned_s, speedup_vs_pruned and the routed-program count);
   every other field is kept, and speedup is reference time over graph
   time. *)
let json_of results ~reps ~mode =
  let b = Buffer.create 4096 in
  let fl f = Printf.sprintf "%.6f" f in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema_version\": 3,\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string b "  \"cases\": [\n";
  let n = List.length results in
  List.iteri
    (fun i r ->
      let speedup =
        match r.ref_s with
        | Some ref_s when r.graph_s > 0. -> Printf.sprintf "%.2f" (ref_s /. r.graph_s)
        | _ -> "null"
      in
      let waste =
        if r.stats.Enumerate.consistent > 0 then
          Printf.sprintf "%.4f"
            (float_of_int r.stats.Enumerate.generated
            /. float_of_int r.stats.Enumerate.consistent)
        else "1.0"
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"model\": \"%s\", \"new_s\": %s, \"ref_s\": %s, \
            \"speedup\": %s, \"outcomes\": %d, \"explored\": %d, \"pruned\": %d, \
            \"consistent\": %d, \"revisits\": %d, \"symmetry_skips\": %d, \"waste\": \
            %s}%s\n"
           r.case.name
           (Axiomatic.model_name r.case.model)
           (fl r.graph_s)
           (match r.ref_s with Some s -> fl s | None -> "null")
           speedup r.outcomes r.stats.Enumerate.generated r.stats.Enumerate.pruned
           r.stats.Enumerate.consistent r.stats.Enumerate.revisits
           r.stats.Enumerate.symmetry_skips waste
           (if i = n - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ],\n";
  let total_new = List.fold_left (fun acc r -> acc +. r.graph_s) 0. results in
  let total_ref =
    List.fold_left (fun acc r -> match r.ref_s with Some s -> acc +. s | None -> acc) 0.
      results
  in
  Buffer.add_string b
    (Printf.sprintf "  \"totals\": {\"new_s\": %s, \"ref_s\": %s, \"speedup\": %s}\n"
       (fl total_new) (fl total_ref)
       (if total_new > 0. && total_ref > 0. then
          Printf.sprintf "%.2f" (total_ref /. total_new)
        else "null"));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let () =
  let out = ref None in
  let expected = ref None in
  let write_exp = ref None in
  let reps = ref (if fast () then 1 else 3) in
  let reference = ref true in
  let optimal = ref false in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--expected" :: v :: rest ->
        expected := Some v;
        parse rest
    | "--write-expected" :: v :: rest ->
        write_exp := Some v;
        parse rest
    | "--reps" :: v :: rest ->
        reps := int_of_string v;
        parse rest
    | "--no-reference" :: rest ->
        reference := false;
        parse rest
    | "--assert-optimal" :: rest ->
        optimal := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "bench_explore: unknown argument %s\n\
           usage: bench_explore [--out FILE] [--expected FILE] [--write-expected FILE] \
           [--reps N] [--no-reference] [--assert-optimal]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let mode = if fast () then "fast" else "full" in
  Printf.printf "exploration benchmark: %d cases, %d rep(s), mode %s, reference %s\n%!"
    (List.length cases) !reps mode
    (if !reference then "on" else "off");
  let results =
    List.map
      (fun c ->
        let r = run_case ~reps:!reps ~reference:!reference c in
        Printf.printf
          "  %-14s %-6s %8.4fs  %s outcomes %5d  explored %7d  revisits %5d  sym-skips %6d\n%!"
          r.case.name
          (Axiomatic.model_name r.case.model)
          r.graph_s
          (match r.ref_s with
          | Some s when r.graph_s > 0. -> Printf.sprintf "vs ref %6.2fx " (s /. r.graph_s)
          | _ -> "")
          r.outcomes r.stats.Enumerate.generated r.stats.Enumerate.revisits
          r.stats.Enumerate.symmetry_skips;
        r)
      cases
  in
  Option.iter (fun p -> write_expected p results) !write_exp;
  Option.iter (fun p -> assert_expected p results) !expected;
  if !optimal then assert_optimal results;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of results ~reps:!reps ~mode);
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    !out
