(* The served protocol's JSON is [Wmm_util.Json]; the benchmark harness
   still names it [Wmm_served.Json]. *)
include Wmm_util.Json
