open Wmm_isa
open Wmm_model

(* The single source of truth for which models and architectures
   exist.  Both CLIs' --model/--arch validation, the served
   protocol's wire names, and the stats/README tables all read this
   list, so a newly registered model appears everywhere at once. *)

type tier = Hardware | Language

type model_info = {
  model : Axiomatic.model;
  wire : string;  (** canonical lowercase wire/CLI name *)
  display : string;  (** human name, as printed in reports *)
  aliases : string list;
  tier : tier;
  summary : string;
}

let models =
  [
    {
      model = Axiomatic.Sc;
      wire = "sc";
      display = "SC";
      aliases = [];
      tier = Hardware;
      summary = "sequential consistency: acyclic(po U com)";
    };
    {
      model = Axiomatic.Tso;
      wire = "tso";
      display = "TSO";
      aliases = [ "x86" ];
      tier = Hardware;
      summary = "total store order: store buffering only";
    };
    {
      model = Axiomatic.Arm;
      wire = "arm";
      display = "ARMv8";
      aliases = [ "armv8" ];
      tier = Hardware;
      summary = "ARMv8 external consistency (other-multi-copy-atomic)";
    };
    {
      model = Axiomatic.Power;
      wire = "power";
      display = "POWER";
      aliases = [ "power7"; "ppc" ];
      tier = Hardware;
      summary = "herding-cats POWER (non-multi-copy-atomic)";
    };
    {
      model = Axiomatic.Rc11;
      wire = "rc11";
      display = "RC11";
      aliases = [ "c11" ];
      tier = Language;
      summary = "C11/RC11 language model: rlx/acq/rel/sc accesses, fences, RMWs";
    };
  ]

let info_for m = List.find (fun i -> i.model = m) models

let model_wire_name m = (info_for m).wire

let model_of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun i -> i.wire = s || List.mem s i.aliases) models
  |> Option.map (fun i -> i.model)

let model_wire_names = List.map (fun i -> i.wire) models

let valid_models_sentence =
  Printf.sprintf "valid models: %s" (String.concat ", " model_wire_names)

let tier_name = function Hardware -> "hardware" | Language -> "language"

type arch_info = { arch : Arch.t; arch_wire : string; arch_display : string }

let arches =
  [
    { arch = Arch.Armv8; arch_wire = "armv8"; arch_display = "ARMv8" };
    { arch = Arch.Power7; arch_wire = "power7"; arch_display = "POWER7" };
  ]

let arch_wire_names = List.map (fun i -> i.arch_wire) arches

let valid_arches_sentence =
  Printf.sprintf "valid architectures: %s" (String.concat ", " arch_wire_names)

(* Rendered once here so the CLI, served stats and docs agree. *)
let model_table () =
  List.map
    (fun i ->
      Printf.sprintf "%-6s %-6s %-9s %s" i.wire i.display (tier_name i.tier) i.summary)
    models
