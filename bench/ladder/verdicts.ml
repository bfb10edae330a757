(* The certified-verdict pipeline and the two workloads built on it.

   One op is one verdict: parse the test's text, run the operational
   machine and the axiomatic model, emit a certificate, serialize it and
   have the independent checker accept it.  Untraced runs call
   [Check.run_exhaustive]; traced runs call its two halves,
   [Relaxed.enumerate] and [Check.axiomatic_allowed], under separate
   spans so machine time and model time split. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
open Common
module Relaxed = Wmm_machine.Relaxed

let machine_config = function
  | Axiomatic.Sc | Axiomatic.Rc11 -> Relaxed.sc_config
  | Axiomatic.Tso -> Relaxed.tso_config
  | Axiomatic.Arm | Axiomatic.Power -> Relaxed.relaxed_config

type job = {
  label : string;
  text : string;
  model : Axiomatic.model;
  expected : bool option;  (** the library's annotation, if any *)
}

(* Layer counters of a traced phase. *)
type counts = {
  mutable outcomes : int;
  mutable skipped : int;
  mutable bytes : int;
  mutable rejected : int;
}

let counts () = { outcomes = 0; skipped = 0; bytes = 0; rejected = 0 }

let satisfies (t : Test.t) (o : Relaxed.outcome) =
  Test.condition_matches t.Test.condition o.Relaxed.registers
  && List.for_all
       (fun (l, v) -> Option.value (List.assoc_opt l o.Relaxed.memory) ~default:0 = v)
       t.Test.mem_condition

(* The output checks of one verdict: the certificate was emitted and
   accepted, it claims what the verdict says under the right model, the
   machine never reached a forbidden outcome, and the verdict matches
   the annotation where one exists. *)
let judge job ~allowed ~observed checked =
  match checked with
  | Error msg -> Error msg
  | Ok (c : Wmm_cert.Certificate.t) ->
      let claims_allowed =
        match c.Wmm_cert.Certificate.claim with
        | Wmm_cert.Certificate.Allowed _ -> Some true
        | Wmm_cert.Certificate.Forbidden _ -> Some false
        | Wmm_cert.Certificate.Minimal _ -> None
      in
      if claims_allowed <> Some allowed then Error "certificate claim differs from the verdict"
      else if Wmm_cert.Axioms.model_name c.Wmm_cert.Certificate.model
              <> Axiomatic.model_name job.model
      then Error "certificate is for another model"
      else if observed && not allowed then Error "machine reached a forbidden outcome"
      else if Option.fold ~none:false ~some:(fun e -> e <> allowed) job.expected then
        Error "verdict differs from the annotation"
      else Ok ()

let parse job =
  match Parse.parse job.text with
  | Ok p -> p.Parse.test
  | Error e -> failwith ("parse: " ^ e)

let verdict job =
  let t = parse job in
  let v = Check.run_exhaustive job.model (machine_config job.model) t in
  let checked =
    match Wmm_certify.Emit.litmus job.model t with
    | Error msg -> Error ("certificate skipped: " ^ msg)
    | Ok c -> (
        match Wmm_cert.Checker.check_string (Wmm_cert.Certificate.to_string c) with
        | Ok c -> Ok c
        | Error r -> Error ("certificate rejected: " ^ Wmm_cert.Checker.reason_string r))
  in
  judge job ~allowed:v.Check.axiomatic_allowed ~observed:v.Check.observed checked

let traced_verdict cs ~op job =
  Span.with_ ~op "op.verdict" (fun () ->
      let t = Span.with_ ~op "litmus.parse" (fun () -> parse job) in
      let outs =
        Span.with_ ~op "machine.relaxed" (fun () ->
            Relaxed.enumerate (machine_config job.model) t.Test.program)
      in
      cs.outcomes <- cs.outcomes + List.length outs;
      let observed = List.exists (satisfies t) outs in
      let allowed =
        Span.with_ ~op "model.explore" (fun () -> Check.axiomatic_allowed job.model t)
      in
      let checked =
        match Span.with_ ~op "certify.emit" (fun () -> Wmm_certify.Emit.litmus job.model t) with
        | Error msg ->
            cs.skipped <- cs.skipped + 1;
            Error ("certificate skipped: " ^ msg)
        | Ok c -> (
            let s =
              Span.with_ ~op "cert.serialize" (fun () -> Wmm_cert.Certificate.to_string c)
            in
            cs.bytes <- cs.bytes + String.length s;
            match Span.with_ ~op "cert.check" (fun () -> Wmm_cert.Checker.check_string s) with
            | Ok c -> Ok c
            | Error r ->
                cs.rejected <- cs.rejected + 1;
                Error ("certificate rejected: " ^ Wmm_cert.Checker.reason_string r))
      in
      judge job ~allowed ~observed checked)

let run_job t ?(timed = true) f job =
  let a = now_s () in
  let r = try f job with e -> Error (Printexc.to_string e) in
  let ms = (now_s () -. a) *. 1e3 in
  let msg () =
    Printf.sprintf "%s under %s: %s" job.label (Axiomatic.model_name job.model)
      (match r with Error m -> m | Ok () -> "")
  in
  if timed then op t ~lat_ms:ms (Result.is_ok r) msg else op t (Result.is_ok r) msg

let pipeline_layers =
  [ "litmus.parse"; "machine.relaxed"; "model.explore"; "certify.emit"; "cert.serialize"; "cert.check" ]

(* A traced phase over chunks of jobs; the untraced runs are the
   overhead baseline and are not checked. *)
let traced_phase t chunks =
  let cs = counts () in
  let op = ref 0 in
  let untraced_s, traced_s =
    interleave chunks
      ~untraced:(Array.iter (fun j -> ignore (try verdict j with _ -> Ok ())))
      ~traced:
        (Array.iter (fun j ->
             incr op;
             run_job t (traced_verdict cs ~op:!op) j))
  in
  model_counters ()
  @ [
      ("machine.relaxed.outcomes", float_of_int cs.outcomes);
      ("certify.skipped", float_of_int cs.skipped);
      ("cert.bytes", float_of_int cs.bytes);
      ("cert.rejected", float_of_int cs.rejected);
    ]
  @ trace_health ~untraced_s ~traced_s ~covered_s:(covered_s pipeline_layers)

(* ------------------------------------------------------------------ *)
(* library: the 44 hand-written tests under all five models.           *)
(* ------------------------------------------------------------------ *)

module Library_load = struct
  type state = { jobs : job array }

  let setup (_ : ctx) =
    let jobs =
      Array.of_list
        (List.concat_map
           (fun (test : Test.t) ->
             let text = Parse.to_text test in
             List.map
               (fun model ->
                 { label = test.Test.name; text; model; expected = Test.expected_under test model })
               Axiomatic.all_models)
           Library.all)
    in
    (* The cold round: first-touch costs land in set-up, not in the
       timed rounds.  Its checks still count. *)
    let t = tally () in
    Array.iter (run_job t ~timed:false verdict) jobs;
    if t.failed > 0 then failwith "library: the cold round failed its checks";
    { jobs }

  let order c round jobs =
    let a = Array.copy jobs in
    shuffle ~seed:((c.seed * 7919) + round) a;
    a

  let run c st =
    let t = tally () in
    let rates =
      rounds c ~n:(if c.smoke then 1 else 80) ~ops_per_round:(Array.length st.jobs) (fun r ->
          Array.iter (run_job t verdict) (order c r st.jobs))
    in
    e2e_report t ~rates ~rss_mb:(vm_hwm_mb "self")

  let trace c st =
    let rounds = if c.smoke then 1 else 20 in
    let t = tally () in
    layer_report t ~counters:(traced_phase t (Array.init rounds (fun r -> order c r st.jobs)))
end

(* ------------------------------------------------------------------ *)
(* synth: a seeded draw from the bound-6 ARMv8 and POWER families.      *)
(* ------------------------------------------------------------------ *)

(* The bound-6 family of [arch] as Synth.generate makes it (its size is
   the synth.tests count), less the tests listed in
   expected/machine_escapes.txt: on those the operational machine
   reaches an outcome the model forbids, so their ops could never pass
   the machine check. *)
let family arch =
  let escapes = Hashtbl.create 256 in
  In_channel.with_open_text (Filename.concat data "expected/machine_escapes.txt")
    In_channel.input_lines
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ a; name ] when line.[0] <> '#' -> Hashtbl.replace escapes (a, name) ()
         | _ -> ());
  let all = Span.with_ "synth.generate" (fun () -> Wmm_synth.Synth.generate arch) in
  ( List.length all,
    List.filter
      (fun (g : Wmm_synth.Synth.generated) ->
        not (Hashtbl.mem escapes (Arch.name arch, g.Wmm_synth.Synth.g_test.Test.name)))
      all )

(* A seeded draw of [n] tests that keeps the family's mix of sizes, so
   that runs on different seeds do comparable work: order the family
   by thread and instruction count (seeded among equals), take every
   (size/n)-th test from a seeded offset, then shuffle.  The rest of
   the family comes back too, for warm-up. *)
let stratified ~seed n family =
  let rng = Wmm_util.Rng.create seed in
  let size (g : Wmm_synth.Synth.generated) =
    let p = g.Wmm_synth.Synth.g_test.Test.program in
    (Program.thread_count p, Program.instruction_count p, Wmm_util.Rng.unit_float rng)
  in
  let sorted = Array.of_list (List.map (fun g -> (size g, g)) family) in
  Array.sort (fun (a, _) (b, _) -> compare a b) sorted;
  let total = Array.length sorted in
  let offset = Wmm_util.Rng.unit_float rng in
  let chosen = Array.make total false in
  let draw =
    Array.init n (fun i ->
        let j = int_of_float ((float_of_int i +. offset) *. float_of_int total /. float_of_int n) in
        chosen.(j) <- true;
        snd sorted.(j))
  in
  Wmm_util.Rng.shuffle_in_place rng draw;
  let rest = List.filteri (fun j _ -> not chosen.(j)) (Array.to_list (Array.map snd sorted)) in
  (draw, rest)

module Synth_load = struct
  type state = { draw : job array array; generated : int }

  let per_arch = 1500

  (* Tests of the draw, arches alternating, each under its three
     verdict models; no test repeats within a run. *)
  let setup (c : ctx) =
    let n = if c.smoke then 15 else per_arch in
    let warm = if c.smoke then 1 else 10 in
    let jobs_of arch (g : Wmm_synth.Synth.generated) =
      let test = g.Wmm_synth.Synth.g_test in
      let text = Parse.to_text ~arch test in
      Array.of_list
        (List.map
           (fun model -> { label = test.Test.name; text; model; expected = None })
           (Wmm_synth.Synth.verdict_models arch))
    in
    let t = tally () in
    let families =
      List.map
        (fun arch ->
          let generated, usable = family arch in
          let draw, rest =
            stratified ~seed:((c.seed * 104729) + Hashtbl.hash (Arch.name arch)) n usable
          in
          (* The cold pass: [warm] tests of all sizes from outside the
             draw. *)
          let every = max 1 (List.length rest / warm) in
          List.iteri
            (fun i g ->
              if i mod every = 0 && i / every < warm then
                Array.iter (run_job t ~timed:false verdict) (jobs_of arch g))
            rest;
          (generated, Array.map (jobs_of arch) draw))
        [ Arch.Armv8; Arch.Power7 ]
    in
    if t.failed > 0 then failwith "synth: the cold pass failed its checks";
    let arm = snd (List.nth families 0) and power = snd (List.nth families 1) in
    {
      draw = Array.init (2 * n) (fun i -> if i mod 2 = 0 then arm.(i / 2) else power.(i / 2));
      generated = List.fold_left (fun a (g, _) -> a + g) 0 families;
    }

  (* One pass over the draw, cut short once the run's seconds are
     spent. *)
  let run c st =
    let t = tally () in
    let done_s = ref [] in
    settle ();
    let start = now_s () in
    Array.iter
      (fun jobs ->
        if now_s () -. start < c.seconds || !done_s = [] then
          Array.iter
            (fun j ->
              run_job t verdict j;
              done_s := now_s () :: !done_s)
            jobs)
      st.draw;
    let done_s = Array.of_list (List.rev !done_s) in
    e2e_report t ~rates:(block_rates done_s ~start) ~rss_mb:(vm_hwm_mb "self")

  let trace c st =
    let tests = if c.smoke then 10 else 1000 in
    let chunks = Array.init (tests / 10) (fun i -> Array.concat (Array.to_list (Array.sub st.draw (10 * i) 10))) in
    let t = tally () in
    let counters = traced_phase t chunks in
    layer_report t ~counters:(("synth.tests", float_of_int st.generated) :: counters)
end
