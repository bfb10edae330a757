open Wmm_util
open Wmm_machine
open Wmm_platform

type platform = Jvm_platform of Jvm.config | Kernel_platform of Kernel.config

let platform_arch = function
  | Jvm_platform c -> c.Jvm.arch
  | Kernel_platform c -> c.Kernel.arch

(* Draw an integer count from a fractional per-unit rate. *)
let draw_count rng rate =
  let base = int_of_float (floor rate) in
  let frac = rate -. float_of_int base in
  base + (if frac > 0. && Rng.unit_float rng < frac then 1 else 0)

let pick_location (p : Profile.t) rng tid =
  if Rng.unit_float rng < p.Profile.share_ratio then Rng.int rng p.Profile.shared_locations
  else begin
    let base = p.Profile.shared_locations + (tid * p.Profile.working_set) in
    base + Rng.int rng p.Profile.working_set
  end

let shared_location (p : Profile.t) rng = Rng.int rng p.Profile.shared_locations

(* Each platform operation kind is compiled once per [streams] call
   into a template whose memory accesses target [sentinel]; emitting
   an occurrence retargets them to the drawn location. *)
type op_kind = { template : Uop.packed array; rate : float }

let sentinel = -1

let retarget loc u =
  if Uop.arg u <> sentinel then u
  else
    match Uop.kind u with
    | (Load | Store | Load_acquire | Store_release) as k -> Uop.make k loc
    | _ -> u

(* The kinds in draw and emission order: JVM volatile loads, volatile
   stores, CASes, then locks (enter, a little work, exit); or each of
   the profile's kernel macros, followed by the surrounding work that
   keeps distinct invocations from overlapping in the pipeline. *)
let op_kinds (p : Profile.t) platform =
  let kind uops rate = { template = Uop.pack_list uops; rate } in
  match platform with
  | Jvm_platform c ->
      let r = p.Profile.jvm and compile = Jvm.compile c in
      [|
        kind (compile (Jvm.Volatile_load sentinel)) r.Profile.volatile_loads;
        kind (compile (Jvm.Volatile_store sentinel)) r.Profile.volatile_stores;
        kind (compile (Jvm.Cas sentinel)) r.Profile.cas;
        kind
          (compile (Jvm.Lock_enter sentinel) @ [ Uop.Busy 8 ] @ compile (Jvm.Lock_exit sentinel))
          r.Profile.locks;
      |]
  | Kernel_platform c ->
      Array.of_list
        (List.map
           (fun (macro, rate) -> kind (Kernel.expand c macro ~loc:sentinel @ [ Uop.Busy 3 ]) rate)
           p.Profile.kernel)

(* Streams are written into a per-domain staging buffer that grows as
   needed and is reused across calls; each stream leaves it in one
   exact-size copy. *)
let staging : Uop.packed array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let put buf i u =
  let len = Array.length !buf in
  if i >= len then begin
    let bigger = Array.make (max (i + 1) (max 4096 (2 * len))) (Uop.make Busy 0) in
    Array.blit !buf 0 bigger 0 len;
    buf := bigger
  end;
  !buf.(i) <- u

(* Write one work unit at [pos] and return the position after it.
   Compute is interleaved with memory traffic and platform operations
   so barriers meet realistic store-buffer occupancy.  The draws come
   in a fixed order (busy, platform-operation locations, loads, stores,
   tail), but platform operations are emitted after the stores, so
   they are written past the slots the loads and stores then fill. *)
let emit_unit (p : Profile.t) kinds rng tid buf pos =
  let noise = p.Profile.noise in
  let busy =
    let mean = float_of_int p.Profile.unit_busy_cycles in
    let drawn =
      if noise.Profile.busy_std_frac > 0. then
        Rng.gaussian rng ~mean ~std:(mean *. noise.Profile.busy_std_frac)
      else mean
    in
    max 1 (int_of_float drawn)
  in
  let loads = p.Profile.unit_loads and stores = p.Profile.unit_stores in
  let q = ref (pos + loads + stores + 2) in
  for k = 0 to Array.length kinds - 1 do
    let { template; rate } = kinds.(k) in
    for _ = 1 to draw_count rng rate do
      let loc = shared_location p rng in
      for j = 0 to Array.length template - 1 do
        put buf !q (retarget loc template.(j));
        incr q
      done
    done
  done;
  let quarter = Uop.make Busy (busy / 4) in
  put buf pos quarter;
  for i = 1 to loads do
    put buf (pos + i) (Uop.make Load (pick_location p rng tid))
  done;
  put buf (pos + loads + 1) quarter;
  for i = 1 to stores do
    put buf (pos + loads + 1 + i) (Uop.make Store (pick_location p rng tid))
  done;
  put buf !q (Uop.make Busy (busy - (2 * (busy / 4))));
  if noise.Profile.unit_tail_prob > 0. && Rng.unit_float rng < noise.Profile.unit_tail_prob
  then begin
    let scale = float_of_int (max 1 noise.Profile.unit_tail_cycles) in
    put buf (!q + 1) (Uop.make Busy (int_of_float (Rng.pareto rng ~shape:1.5 ~scale)));
    !q + 2
  end
  else !q + 1

let streams ?units_override (p : Profile.t) platform ~seed =
  (match Profile.validate p with Ok () -> () | Error m -> invalid_arg m);
  let arch = platform_arch platform in
  let threads = Profile.effective_threads p arch in
  let units =
    match units_override with Some u -> u | None -> p.Profile.units_per_thread
  in
  let kinds = op_kinds p platform in
  (* Claim the buffer for this call: another thread on this domain that
     calls in meanwhile starts from an empty one. *)
  let buf = ref (Domain.DLS.get staging) in
  Domain.DLS.set staging [||];
  let root = Rng.create (seed * 2654435761) in
  let result =
    Array.init threads (fun tid ->
        let rng = Rng.split root in
        let pos = ref 0 in
        for _ = 1 to units do
          pos := emit_unit p kinds rng tid buf !pos
        done;
        Array.sub !buf 0 !pos)
  in
  Domain.DLS.set staging !buf;
  result
