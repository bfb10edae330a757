open Wmm_isa
open Wmm_model

(** Single source of truth for the registered memory models and
    architectures: wire names, aliases, display names and one-line
    summaries.  CLI validation, the served protocol and the stats
    output all derive from these lists, so registering a model here
    surfaces it everywhere at once. *)

type tier = Hardware | Language

type model_info = {
  model : Axiomatic.model;
  wire : string;
  display : string;
  aliases : string list;
  tier : tier;
  summary : string;
}

val models : model_info list

val info_for : Axiomatic.model -> model_info

val model_wire_name : Axiomatic.model -> string

val model_of_string : string -> Axiomatic.model option
(** Case-insensitive; accepts wire names and aliases. *)

val model_wire_names : string list

val valid_models_sentence : string
(** ["valid models: sc, tso, arm, power, rc11"] — for exit-2 error
    messages. *)

val tier_name : tier -> string

type arch_info = { arch : Arch.t; arch_wire : string; arch_display : string }

val arches : arch_info list

val arch_wire_names : string list

val valid_arches_sentence : string

val model_table : unit -> string list
(** One formatted row per model: wire, display, tier, summary. *)
