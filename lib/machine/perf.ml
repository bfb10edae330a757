open Wmm_isa
open Wmm_util

type config = { timing : Timing.t; cores : int; seed : int }

let config ?(seed = 1) ?cores arch =
  let cores = match cores with Some c -> c | None -> Arch.core_count arch in
  { timing = Timing.for_arch arch; cores; seed }

type stats = {
  wall_cycles : int;
  per_core_cycles : int array;
  bus_transactions : int;
  bus_wait_cycles : int;
  fence_stall_cycles : int;
  release_stall_cycles : int;
  forwarded_loads : int;
  l1_hits : int;
  l1_misses : int;
  uops_executed : int;
}

(* The store buffer is a ring of (destination, drain completion time)
   entries, oldest first.  Drains are serial per core, so a completion
   time is fixed at enqueue and never decreases along the ring: the
   entries still pending at any time form a suffix.  Completed entries
   are dropped only at enqueue, so until the next store a load can still
   forward from an entry that has drained. *)
type core_state = {
  id : int;
  stream : Uop.packed array;
  mutable index : int;
  mutable time : int;
  mutable prev_was_spin : bool;
  sb_loc : int array;
  sb_done : int array;
  mutable sb_head : int;  (** Slot of the oldest entry. *)
  mutable sb_len : int;
  mutable sb_tail_completes : int;
  mutable last_release : int;
  rng : Rng.t;
}

(* Slot of the [i]th entry, oldest first; ring sizes are powers of two. *)
let slot core i = (core.sb_head + i) land (Array.length core.sb_loc - 1)

let forwardable core loc =
  let i = ref 0 in
  while !i < core.sb_len && core.sb_loc.(slot core !i) <> loc do incr i done;
  !i < core.sb_len

(* The newest same-location entry completes last. *)
let same_loc_drain_time core loc =
  let i = ref (core.sb_len - 1) in
  while !i >= 0 && core.sb_loc.(slot core !i) <> loc do decr i done;
  if !i < 0 then 0 else core.sb_done.(slot core !i)

(* Time at which occupancy drops to [threshold] or below: the
   completion of the entry with [threshold] newer ones, if it is still
   pending at [now]. *)
let time_for_occupancy core now threshold =
  if core.sb_len <= threshold then now
  else Int.max now core.sb_done.(slot core (core.sb_len - 1 - threshold))

let drop_completed core now =
  while core.sb_len > 0 && core.sb_done.(core.sb_head) <= now do
    core.sb_head <- slot core 1;
    core.sb_len <- core.sb_len - 1
  done

let push core loc completes =
  assert (core.sb_len < Array.length core.sb_loc);
  let s = slot core core.sb_len in
  core.sb_loc.(s) <- loc;
  core.sb_done.(s) <- completes;
  core.sb_len <- core.sb_len + 1

let run config streams =
  if Array.length streams > config.cores then
    invalid_arg "Perf.run: more streams than cores";
  let tm = config.timing in
  if tm.Timing.sb_capacity < 1 then invalid_arg "Perf.run: store buffer capacity must be positive";
  let memsys = Memsys.create tm ~cores:config.cores in
  let base_rng = Rng.create config.seed in
  (* An enqueue waits until at most [sb_capacity - 1] entries are
     pending and then adds one, so the next enqueue, after dropping the
     completed entries, finds at most [sb_capacity] and adds one more:
     the ring never holds more than [sb_capacity + 1]. *)
  let ring = ref 1 in
  while !ring <= tm.Timing.sb_capacity + 1 do ring := 2 * !ring done;
  let cores =
    Array.mapi
      (fun i stream ->
        {
          id = i;
          stream;
          index = 0;
          time = 0;
          prev_was_spin = false;
          sb_loc = Array.make !ring 0;
          sb_done = Array.make !ring 0;
          sb_head = 0;
          sb_len = 0;
          sb_tail_completes = 0;
          last_release = min_int / 2;
          rng = Rng.split base_rng;
        })
      streams
  in
  let fence_stall = ref 0 in
  let release_stall = ref 0 in
  let forwarded = ref 0 in
  let executed = ref 0 in
  let enqueue_store ~extra_drain core loc =
    (* Drop entries whose drain has completed; the live ring is then
       bounded by the buffer capacity. *)
    drop_completed core core.time;
    (* Respect buffer capacity: stall until a slot frees up. *)
    core.time <- time_for_occupancy core core.time (tm.Timing.sb_capacity - 1);
    let start = Int.max core.time core.sb_tail_completes in
    let completes = Memsys.store_drain memsys ~core:core.id ~loc ~now:start + extra_drain in
    core.sb_tail_completes <- completes;
    push core loc completes;
    core.time <- core.time + 1
  in
  let do_load core loc =
    if forwardable core loc then begin
      incr forwarded;
      core.time <- core.time + 1
    end
    else core.time <- Memsys.load memsys ~core:core.id ~loc ~now:core.time
  in
  let spin_cost core ~light n =
    (* Back-to-back injected loops overlap in the pipeline; only a
       fraction of a spin's time is paid when it directly follows
       another one. *)
    let full = Timing.spin_injected_cycles tm ~light n in
    if core.prev_was_spin then
      int_of_float (Float.round (tm.Timing.spin_adjacent_fraction *. float_of_int full))
    else full
  in
  let counter_base = 1_000_000 in
  let line_stride = 1 lsl tm.Timing.line_shift in
  let step core =
    let uop = core.stream.(core.index) in
    core.index <- core.index + 1;
    incr executed;
    let kind = Uop.kind uop and arg = Uop.arg uop in
    (match kind with
    | Uop.Kind.Busy -> core.time <- core.time + Int.max 0 arg
    | Nops -> core.time <- core.time + Timing.nop_cycles tm arg
    | Spin -> core.time <- core.time + spin_cost core ~light:false arg
    | Spin_light -> core.time <- core.time + spin_cost core ~light:true arg
    | Branch ->
        (* Prediction quality tracks code/data footprint: tight
           cache-resident loops (lmbench-style) predict almost
           perfectly; large-footprint macro workloads do not.  This
           is the source of the paper's micro/macro divergence for
           the ctrl fencing strategy. *)
        let loads = Memsys.loads memsys ~core:core.id in
        let miss_ratio =
          if loads = 0 then 0.
          else float_of_int (Memsys.misses memsys ~core:core.id) /. float_of_int loads
        in
        let rate =
          Float.min tm.Timing.branch_mispredict_rate (0.06 +. (1.2 *. miss_ratio))
        in
        let cost =
          if Rng.unit_float core.rng < rate then
            tm.Timing.branch_cycles + tm.Timing.branch_mispredict_cycles
          else tm.Timing.branch_cycles
        in
        core.time <- core.time + cost
    | Load -> do_load core arg
    | Load_acquire ->
        (* An acquire load may not return a buffered (not yet
           globally visible) value: wait for same-location drains. *)
        core.time <- Int.max core.time (same_loc_drain_time core arg);
        do_load core arg;
        core.time <- core.time + tm.Timing.acquire_extra_cycles
    | Store -> enqueue_store ~extra_drain:0 core arg
    | Store_release ->
        let avail = time_for_occupancy core core.time tm.Timing.release_drain_threshold in
        release_stall := !release_stall + Int.max 0 (avail - core.time);
        core.time <- Int.max core.time avail;
        enqueue_store ~extra_drain:tm.Timing.release_drain_penalty_cycles core arg;
        core.time <- core.time + tm.Timing.release_extra_cycles;
        core.last_release <- core.time
    | Fence_full ->
        let drained = Int.max core.time core.sb_tail_completes in
        fence_stall := !fence_stall + (drained - core.time);
        let interaction =
          if core.time - core.last_release < 30 then
            tm.Timing.release_fence_interaction_cycles
          else 0
        in
        core.time <- drained + tm.Timing.full_fence_cycles + interaction
    | Fence_store -> core.time <- core.time + tm.Timing.store_fence_cycles
    | Fence_load -> core.time <- core.time + tm.Timing.load_fence_cycles
    | Fence_lw ->
        (* lwsync orders without a full drain: it only waits for the
           buffer to shrink below a couple of entries. *)
        let avail = time_for_occupancy core core.time 2 in
        fence_stall := !fence_stall + Int.max 0 (avail - core.time);
        core.time <- Int.max core.time avail + tm.Timing.lwsync_cycles
    | Fence_pipeline -> core.time <- core.time + tm.Timing.pipeline_flush_cycles
    | Counter_shared ->
        (* Invocation counter in a line shared by every core: a
           read-modify-write that bounces the line (the perturbation
           the paper warns about). *)
        let loc = counter_base + (arg * line_stride) in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store ~extra_drain:0 core loc
    | Counter_private ->
        let loc =
          counter_base + (1024 * line_stride)
          + (((arg * config.cores) + core.id) * line_stride)
        in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store ~extra_drain:0 core loc);
    core.prev_was_spin <- (match kind with Spin | Spin_light -> true | _ -> false)
  in
  (* Advance cores in global time order so shared-resource usage is
     causally consistent: the earliest core steps next, the lowest index
     on ties.  Stepping a core leaves the others as they were, so it
     keeps stepping until it is no longer ahead of the earliest of the
     rest, which then takes over.  [clock.(i)] is core [i]'s time, or
     [max_int] once its stream is done; it is refreshed when the core
     hands over. *)
  let active core = core.index < Array.length core.stream in
  let clock = Array.map (fun core -> if active core then core.time else max_int) cores in
  (* The earliest active core other than [except], or -1. *)
  let earliest except =
    let best = ref (-1) and best_time = ref max_int in
    for i = 0 to Array.length clock - 1 do
      if i <> except && clock.(i) < !best_time then begin
        best := i;
        best_time := clock.(i)
      end
    done;
    !best
  in
  let current = ref (earliest (-1)) in
  while !current >= 0 do
    let c = !current in
    let core = cores.(c) and rival = earliest c in
    let rival_time = if rival < 0 then max_int else clock.(rival) in
    while active core && (core.time < rival_time || (core.time = rival_time && c < rival)) do
      step core
    done;
    clock.(c) <- (if active core then core.time else max_int);
    current := rival
  done;
  let per_core_cycles = Array.map (fun c -> Int.max c.time c.sb_tail_completes) cores in
  let total counter = Array.fold_left (fun n c -> n + counter memsys ~core:c.id) 0 cores in
  let misses = total Memsys.misses in
  {
    wall_cycles = Array.fold_left Int.max 0 per_core_cycles;
    per_core_cycles;
    bus_transactions = Memsys.bus_transactions memsys;
    bus_wait_cycles = Memsys.bus_wait_cycles memsys;
    fence_stall_cycles = !fence_stall;
    release_stall_cycles = !release_stall;
    forwarded_loads = !forwarded;
    l1_hits = total Memsys.loads - misses;
    l1_misses = misses;
    uops_executed = !executed;
  }

let wall_ns config stats = Timing.ns_of_cycles config.timing stats.wall_cycles

let sequence_cost_ns ?(repetitions = 2000) timing sequence =
  let config = { timing; cores = 1; seed = 7 } in
  let spacer = [ Uop.Busy 4 ] in
  let body = Uop.pack_list (List.concat_map (fun u -> u :: spacer) sequence) in
  let repeated = Array.concat (List.init repetitions (fun _ -> body)) in
  let with_seq = run config [| repeated |] in
  let spacer_only =
    Array.concat
      (List.init repetitions (fun _ -> Uop.pack_list (List.concat_map (fun _ -> spacer) sequence)))
  in
  let base = run config [| spacer_only |] in
  Timing.ns_of_cycles timing (with_seq.wall_cycles - base.wall_cycles)
  /. float_of_int repetitions
