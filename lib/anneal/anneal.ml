module Dfg = Rchls_dfg.Dfg
module Op = Rchls_dfg.Op
module Analysis = Rchls_dfg.Analysis
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Schedule = Rchls_sched.Schedule
module Binding = Rchls_binding.Binding
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Check = Rchls_check.Check
module Fuzz = Rchls_check.Fuzz
module Gen = Rchls_check.Gen
module Rng = Rchls_util.Rng
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace

type params = {
  seed : int;
  moves : int;
  chains : int;
  exchange : int;
  t0 : float;
  ratio : float;
}

let default_params =
  { seed = 1; moves = 2000; chains = 4; exchange = 50; t0 = 0.08; ratio = 0.5 }

let ladder p =
  Array.init (Int.max 1 p.chains) (fun k -> p.t0 *. (p.ratio ** float_of_int k))

type stats = {
  attempted : int;
  accepted : int;
  pruned : int;
  exchanges : int;
  chain_count : int;
  improved : bool;
}

let accept ~rng ~temp ~delta =
  delta <= 0. || (temp > 0. && Rng.float rng 1.0 < exp (-.delta /. temp))

(* --- annealer state -------------------------------------------------- *)

(* One functional-unit instance.  [ops] order is irrelevant (packaging
   sorts by start step); the [slots] list order is load-bearing — slot
   searches take the first fit, so the list must evolve identically for
   identical move sequences. *)
type slot = { res : Resource.t; mutable ops : int list }

type state = {
  g : Dfg.t;
  lib : Library.t;
  ld : int;
  ad : int;
  version : Resource.t array;  (* per node *)
  start : int array;  (* per node *)
  host : slot array;  (* per node: the slot hosting it *)
  mutable slots : slot list;  (* live instances; emptied slots removed *)
  mutable area : int;
  mutable energy : float;  (* sum over nodes of -ln reliability *)
  busy : (string, int * int) Hashtbl.t;
      (* version id -> (total busy cycles, unit area): the occupancy
         lower bound's inputs, maintained incrementally *)
}

let neg_log r = -.log r

let state_of_design d ~ld ~ad =
  let g = Design.graph d in
  let n = Dfg.node_count g in
  let version = Array.init n (Design.version_of d) in
  let slots =
    List.map
      (fun (i : Binding.instance) -> { res = i.resource; ops = i.ops })
      (Binding.instances (Design.binding d))
  in
  let host = Array.make n (List.hd slots) in
  List.iter (fun s -> List.iter (fun id -> host.(id) <- s) s.ops) slots;
  let busy = Hashtbl.create 8 in
  Array.iter
    (fun (v : Resource.t) ->
      let cycles =
        match Hashtbl.find_opt busy v.Resource.id with Some (c, _) -> c | None -> 0
      in
      Hashtbl.replace busy v.Resource.id (cycles + v.Resource.delay, v.Resource.area))
    version;
  let energy =
    Array.fold_left (fun acc (v : Resource.t) -> acc +. neg_log v.Resource.reliability) 0. version
  in
  {
    g;
    lib = Design.library d;
    ld;
    ad;
    version;
    start = Schedule.starts (Design.schedule d);
    host;
    slots;
    area = Design.area d;
    energy;
    busy;
  }

let copy_state st =
  let slots = List.map (fun s -> { res = s.res; ops = s.ops }) st.slots in
  let host = Array.make (Array.length st.host) (List.hd slots) in
  List.iter (fun s -> List.iter (fun id -> host.(id) <- s) s.ops) slots;
  {
    st with
    version = Array.copy st.version;
    start = Array.copy st.start;
    host;
    slots;
    busy = Hashtbl.copy st.busy;
  }

let reliability_of st =
  Array.fold_left (fun acc (v : Resource.t) -> acc *. v.Resource.reliability) 1. st.version

let latency_of st =
  let l = ref 0 in
  Array.iteri (fun i s -> l := Int.max !l (s + st.version.(i).Resource.delay)) st.start;
  !l

(* The best-so-far design, deep-copied out of the mutable state. *)
type snap = {
  s_version : Resource.t array;
  s_start : int array;
  s_groups : (Resource.t * int list) list;  (* the slot partition, slots order *)
  s_area : int;
  s_latency : int;
  s_reliability : float;
}

let snap_of st =
  {
    s_version = Array.copy st.version;
    s_start = Array.copy st.start;
    s_groups = List.map (fun s -> (s.res, s.ops)) st.slots;
    s_area = st.area;
    s_latency = latency_of st;
    s_reliability = reliability_of st;
  }

(* reliability desc, then area asc, then latency asc — the same order
   the cross-chain reduction uses, so per-chain incumbents and the
   final reduce agree on what "better" means. *)
let better_than st best =
  let r = reliability_of st in
  if r > best.s_reliability then true
  else if r < best.s_reliability then false
  else if st.area < best.s_area then true
  else if st.area > best.s_area then false
  else latency_of st < best.s_latency

let snap_better a b =
  if a.s_reliability > b.s_reliability then true
  else if a.s_reliability < b.s_reliability then false
  else if a.s_area < b.s_area then true
  else if a.s_area > b.s_area then false
  else a.s_latency < b.s_latency

(* --- occupancy lower bound (PR8 pruning, DESIGN.md par. 14) ----------- *)

(* Minimal area any binding of the post-move assignment can reach:
   every version needs at least ceil(busy_cycles / ld) instances.  If
   even that exceeds the bound, the version move is provably
   area-infeasible under every binding — skip it without touching the
   slot structures. *)
let lb_with st ~removed:(vid, d) ~(added : Resource.t) =
  let lb = ref 0 in
  let seen_added = ref false in
  Hashtbl.iter
    (fun id (cycles, area) ->
      let cycles = if String.equal id vid then cycles - d else cycles in
      let cycles =
        if String.equal id added.Resource.id then begin
          seen_added := true;
          cycles + added.Resource.delay
        end
        else cycles
      in
      if cycles > 0 then lb := !lb + (area * ((cycles + st.ld - 1) / st.ld)))
    st.busy;
  if not !seen_added then
    lb := !lb + (added.Resource.area * ((added.Resource.delay + st.ld - 1) / st.ld));
  !lb

let busy_shift st ~(removed : Resource.t) ~(added : Resource.t) =
  (match Hashtbl.find_opt st.busy removed.Resource.id with
  | Some (c, a) ->
    let c = c - removed.Resource.delay in
    if c <= 0 then Hashtbl.remove st.busy removed.Resource.id
    else Hashtbl.replace st.busy removed.Resource.id (c, a)
  | None -> ());
  let cycles =
    match Hashtbl.find_opt st.busy added.Resource.id with Some (c, _) -> c | None -> 0
  in
  Hashtbl.replace st.busy added.Resource.id
    (cycles + added.Resource.delay, added.Resource.area)

(* --- moves ----------------------------------------------------------- *)

let overlaps (s1 : int) (f1 : int) s2 f2 = s1 < f2 && s2 < f1

(* Can [excluding]'s interval [s, f) run on [slot] without colliding
   with any other hosted operation? *)
let slot_fits st slot ~excluding s f =
  List.for_all
    (fun m ->
      m = excluding
      || not (overlaps s f st.start.(m) (st.start.(m) + st.version.(m).Resource.delay)))
    slot.ops

let remove_node st slot n =
  slot.ops <- List.filter (fun m -> m <> n) slot.ops;
  if slot.ops = [] then begin
    st.slots <- List.filter (fun s -> s != slot) st.slots;
    st.area <- st.area - slot.res.Resource.area
  end

(* The versions a move of node [n] draws from: its class's library
   versions other than the current one, in library order. *)
let alternatives st n =
  let v = st.version.(n) in
  List.filter
    (fun (r : Resource.t) -> r.Resource.id <> v.Resource.id)
    (Library.versions st.lib (Op.resource_class (Dfg.node st.g n).Dfg.op))

(* What moving node [n] to version [v'] meets before the Metropolis
   draw: [`Rejected] when the new delay overruns a successor or the
   latency bound, or the rehosted design the area bound; [`Pruned] when
   the occupancy lower bound already rules it out; otherwise [`Live
   target], where the node would be rehosted on the first compatible
   instance of [v'] (slots order) or, for [None], a fresh one. *)
let version_verdict st n (v' : Resource.t) =
  let v = st.version.(n) in
  let s = st.start.(n) in
  let finish' = s + v'.Resource.delay in
  let legal =
    finish' <= st.ld && List.for_all (fun m -> finish' <= st.start.(m)) (Dfg.succs st.g n)
  in
  if not legal then `Rejected
  else if lb_with st ~removed:(v.Resource.id, v.Resource.delay) ~added:v' > st.ad then
    `Pruned
  else begin
    let old_slot = st.host.(n) in
    let freed = match old_slot.ops with [ _ ] -> old_slot.res.Resource.area | _ -> 0 in
    let target =
      List.find_opt
        (fun sl -> sl.res.Resource.id = v'.Resource.id && slot_fits st sl ~excluding:n s finish')
        st.slots
    in
    let added_area = match target with Some _ -> 0 | None -> v'.Resource.area in
    if st.area - freed + added_area > st.ad then `Rejected else `Live target
  end

(* Move kind 1: reassign node [n] to a different library version of its
   class (see [version_verdict]).  The only move kind with a nonzero
   energy delta. *)
let try_version_move st rng temp =
  let n = Rng.int rng (Array.length st.version) in
  match alternatives st n with
  | [] -> `Rejected
  | alts -> (
    let v = st.version.(n) in
    let v' = List.nth alts (Rng.int rng (List.length alts)) in
    match version_verdict st n v' with
    | (`Rejected | `Pruned) as outcome -> outcome
    | `Live target ->
      let delta = neg_log v'.Resource.reliability -. neg_log v.Resource.reliability in
      if not (accept ~rng ~temp ~delta) then `Rejected
      else begin
        remove_node st st.host.(n) n;
        let slot =
          match target with
          | Some sl -> sl
          | None ->
            let sl = { res = v'; ops = [] } in
            st.slots <- st.slots @ [ sl ];
            st.area <- st.area + v'.Resource.area;
            sl
        in
        slot.ops <- n :: slot.ops;
        st.host.(n) <- slot;
        st.version.(n) <- v';
        st.energy <- st.energy +. delta;
        busy_shift st ~removed:v ~added:v';
        `Accepted
      end)

(* The start steps [lo, hi] node [n] may move to: after its last
   predecessor finishes, finishing by its first successor's start and
   the latency bound.  Empty when [hi < lo]. *)
let nudge_window st n =
  let d = st.version.(n).Resource.delay in
  let lo =
    List.fold_left
      (fun acc p -> Int.max acc (st.start.(p) + st.version.(p).Resource.delay))
      0 (Dfg.preds st.g n)
  in
  let hi =
    List.fold_left (fun acc m -> Int.min acc st.start.(m)) st.ld (Dfg.succs st.g n) - d
  in
  (lo, hi)

(* Can node [n] start at [s'] on its own instance? *)
let nudge_fits st n s' =
  s' <> st.start.(n)
  && slot_fits st st.host.(n) ~excluding:n s' (s' + st.version.(n).Resource.delay)

(* Move kind 2: move node [n]'s start step within [nudge_window].  Zero
   energy delta (always accepted when legal); the value is unlocking
   sharing and version moves that the current packing forbids. *)
let try_nudge st rng =
  let n = Rng.int rng (Array.length st.version) in
  let lo, hi = nudge_window st n in
  if hi < lo then `Rejected
  else begin
    let s' = lo + Rng.int rng (hi - lo + 1) in
    if not (nudge_fits st n s') then `Rejected
    else begin
      st.start.(n) <- s';
      `Accepted
    end
  end

(* The other instances of node [n]'s version that can host it. *)
let rebind_candidates st n =
  let v = st.version.(n) in
  let s = st.start.(n) in
  let f = s + v.Resource.delay in
  let home = st.host.(n) in
  List.filter
    (fun sl -> sl != home && sl.res.Resource.id = v.Resource.id && slot_fits st sl ~excluding:n s f)
    st.slots

(* The same-version operations on instances other than node [n]'s, in
   node order. *)
let swap_partners st n =
  let v = st.version.(n) in
  let home = st.host.(n) in
  let partners = ref [] in
  Array.iteri
    (fun m (vm : Resource.t) ->
      if m <> n && vm.Resource.id = v.Resource.id && st.host.(m) != home then
        partners := m :: !partners)
    st.version;
  List.rev !partners

(* Do nodes [n] and [m] fit each other's instances? *)
let swap_fits st n m =
  let span i = (st.start.(i), st.start.(i) + st.version.(i).Resource.delay) in
  let s, f = span n and ms, mf = span m in
  slot_fits st st.host.(m) ~excluding:m s f && slot_fits st st.host.(n) ~excluding:n ms mf

(* Move kind 3: migrate node [n] to another compatible instance of its
   version (possibly emptying — and freeing — its old instance), or
   failing that swap it with a same-version operation on another
   instance when both fit each other's slots.  Zero energy delta. *)
let try_rebind st rng =
  let n = Rng.int rng (Array.length st.version) in
  let home = st.host.(n) in
  match rebind_candidates st n with
  | _ :: _ as candidates ->
    let sl = List.nth candidates (Rng.int rng (List.length candidates)) in
    remove_node st home n;
    sl.ops <- n :: sl.ops;
    st.host.(n) <- sl;
    `Accepted
  | [] -> (
    match swap_partners st n with
    | [] -> `Rejected
    | partners ->
      let m = List.nth partners (Rng.int rng (List.length partners)) in
      if swap_fits st n m then begin
        let other = st.host.(m) in
        home.ops <- m :: List.filter (fun x -> x <> n) home.ops;
        other.ops <- n :: List.filter (fun x -> x <> m) other.ops;
        st.host.(n) <- other;
        st.host.(m) <- home;
        `Accepted
      end
      else `Rejected)

(* --- the frozen-state proof ------------------------------------------ *)

(* A state is frozen when no move of any kind can be accepted from it,
   whatever the draw: every version move is rejected or pruned before
   [accept], no nudge fits, no node has a rebind candidate and no swap
   fits.  Such a state never changes, so a chain from it is fully
   described by the draws [step] makes and these tables of their
   outcomes, per node: one flag per alternative version ([alternatives]
   order) saying whether the occupancy bound prunes it, the width of
   the nudge window, and the number of swap partners. *)
type frozen = { prunes : bool array array; widths : int array; partners : int array }

exception Live

(* [Some] tables iff [st] is frozen.  Nudges and rebind candidates are
   the cheapest kinds to check and the likeliest to be live, so they go
   first, and the first live move ends the proof. *)
let frozen st =
  let nodes = Array.length st.version in
  try
    let widths =
      Array.init nodes (fun n ->
          let lo, hi = nudge_window st n in
          for s' = lo to hi do
            if nudge_fits st n s' then raise Live
          done;
          Int.max 0 (hi - lo + 1))
    in
    for n = 0 to nodes - 1 do
      if rebind_candidates st n <> [] then raise Live
    done;
    let partners =
      Array.init nodes (fun n ->
          let ps = swap_partners st n in
          if List.exists (swap_fits st n) ps then raise Live;
          List.length ps)
    in
    let prunes =
      Array.init nodes (fun n ->
          Array.of_list
            (List.map
               (fun v' ->
                 match version_verdict st n v' with
                 | `Live _ -> raise Live
                 | `Pruned -> true
                 | `Rejected -> false)
               (alternatives st n)))
    in
    Some { prunes; widths; partners }
  with Live -> None

(* --- chains ----------------------------------------------------------- *)

type chain = {
  cid : int;
  st : state;
  rng : Rng.t;
  mutable temp : float;
  mutable best : snap;
  mutable attempted : int;
  mutable accepted : int;
  mutable pruned : int;
}

let step st rng temp =
  (* half the draws are version moves (the only reliability-affecting
     kind); the plateau kinds split the rest *)
  let kind = Rng.int rng 4 in
  if kind <= 1 then try_version_move st rng temp
  else if kind = 2 then try_nudge st rng
  else try_rebind st rng

let run_moves ch k =
  for _ = 1 to k do
    ch.attempted <- ch.attempted + 1;
    match step ch.st ch.rng ch.temp with
    | `Pruned -> ch.pruned <- ch.pruned + 1
    | `Rejected -> ()
    | `Accepted ->
      ch.accepted <- ch.accepted + 1;
      if better_than ch.st ch.best then ch.best <- snap_of ch.st
  done

(* [run_moves] on a frozen chain, without evaluating a move: the draws
   [step] makes, in its order — the kind, the node, then the
   alternative only when the node has one, the nudge offset only when
   its window is non-empty, the swap partner only when it has one — and
   the outcome of each read off the tables.  Nothing is accepted, so
   the chain's state and incumbent stay as they are. *)
let replay_moves fz ch k =
  let nodes = Array.length fz.widths in
  for _ = 1 to k do
    ch.attempted <- ch.attempted + 1;
    let kind = Rng.int ch.rng 4 in
    let n = Rng.int ch.rng nodes in
    if kind <= 1 then begin
      let prunes = fz.prunes.(n) in
      let alts = Array.length prunes in
      if alts > 0 && prunes.(Rng.int ch.rng alts) then ch.pruned <- ch.pruned + 1
    end
    else begin
      let width = if kind = 2 then fz.widths.(n) else fz.partners.(n) in
      if width > 0 then ignore (Rng.int ch.rng width)
    end
  done

(* Deterministic parallel tempering: adjacent-in-temperature pairs,
   alternating pairing parity per round, decided by the dedicated
   exchange stream — one float drawn per pair regardless of outcome,
   so the stream position never depends on earlier accept/reject. *)
let exchange_temps chains xrng round exchanged =
  let arr =
    Array.of_list
      (List.sort
         (fun a b ->
           match compare b.temp a.temp with 0 -> compare a.cid b.cid | c -> c)
         chains)
  in
  let i = ref (round mod 2) in
  while !i + 1 < Array.length arr do
    let hot = arr.(!i) in
    let cold = arr.(!i + 1) in
    let p =
      exp
        ((1. /. hot.temp -. 1. /. cold.temp) *. (hot.st.energy -. cold.st.energy))
    in
    let u = Rng.float xrng 1.0 in
    if u < p then begin
      let t = hot.temp in
      hot.temp <- cold.temp;
      cold.temp <- t;
      incr exchanged
    end;
    i := !i + 2
  done

(* --- packaging -------------------------------------------------------- *)

let design_of_snap g lib s =
  let delay (nd : Dfg.node) = s.s_version.(nd.Dfg.id).Resource.delay in
  match Schedule.make g ~delay ~starts:(Array.copy s.s_start) with
  | Error e -> Error e
  | Ok schedule -> (
    (* fresh per-version instance indices in slots order, ops sorted by
       start step — the canonical shape [Binding.bind] produces *)
    let counts = Hashtbl.create 8 in
    let instances =
      List.map
        (fun ((res : Resource.t), ops) ->
          let index =
            Option.value ~default:0 (Hashtbl.find_opt counts res.Resource.id)
          in
          Hashtbl.replace counts res.Resource.id (index + 1);
          let ops =
            List.sort
              (fun a b ->
                match Int.compare s.s_start.(a) s.s_start.(b) with
                | 0 -> Int.compare a b
                | c -> c)
              ops
          in
          { Binding.resource = res; index; ops })
        s.s_groups
    in
    match Binding.of_instances ~node_count:(Dfg.node_count g) instances with
    | Error e -> Error e
    | Ok binding ->
      Design.of_parts g lib
        ~assignment:(fun nd -> s.s_version.(nd.Dfg.id))
        ~schedule ~binding)

(* --- the annealer ----------------------------------------------------- *)

let improve ?(params = default_params) ~ld ~ad seed_design =
  let nchains = Int.max 1 params.chains in
  Trace.with_span "anneal.improve"
    ~attrs:
      [
        ("graph", Trace.Str (Dfg.name (Design.graph seed_design)));
        ("chains", Trace.Int nchains);
        ("moves", Trace.Int (Int.max 0 params.moves));
      ]
    (fun () ->
      let temps = ladder { params with chains = nchains } in
      let base = state_of_design seed_design ~ld ~ad in
      let seed_snap = snap_of base in
      (* one master stream per run; the exchange stream and every
         chain's stream are split off in a fixed order, so the whole
         process is a function of (params.seed, inputs) alone *)
      let master = Rng.create params.seed in
      let xrng = Rng.split master in
      let chains =
        List.init nchains (fun k ->
            {
              cid = k;
              st = copy_state base;
              rng = Rng.split master;
              temp = temps.(k);
              best = seed_snap;
              attempted = 0;
              accepted = 0;
              pruned = 0;
            })
      in
      let per_round = Int.max 1 params.exchange in
      let total = Int.max 0 params.moves in
      let rounds = (total + per_round - 1) / per_round in
      let exchanged = ref 0 in
      (* every chain starts from [base], and a frozen state stays frozen
         whatever the temperature exchanges do: they swap temperatures,
         and no move of a frozen state reaches the Metropolis draw *)
      let run = match frozen base with Some fz -> replay_moves fz | None -> run_moves in
      for r = 0 to rounds - 1 do
        let k = Int.min per_round (total - (r * per_round)) in
        (* each chain mutates only its own state and stream, so the
           order the chains run in within a round is immaterial *)
        List.iter (fun ch -> run ch k) chains;
        if r < rounds - 1 then exchange_temps chains xrng r exchanged
      done;
      let winner =
        List.fold_left
          (fun acc ch -> if snap_better ch.best acc then ch.best else acc)
          seed_snap chains
      in
      let attempted = List.fold_left (fun a ch -> a + ch.attempted) 0 chains in
      let accepted = List.fold_left (fun a ch -> a + ch.accepted) 0 chains in
      let pruned = List.fold_left (fun a ch -> a + ch.pruned) 0 chains in
      let result =
        if winner.s_reliability > Design.reliability seed_design then
          match design_of_snap base.g base.lib winner with
          | Ok d when Check.design_violations d = [] ->
            (* decide on the packaged totals with a relative guard: the
               same version multiset assigned to different nodes changes
               the product's rounding by an ulp, and that must never
               count as an improvement (any genuine version change moves
               the product by orders of magnitude more than 1e-9) *)
            let r0 = Design.reliability seed_design in
            if Design.reliability d > r0 +. (1e-9 *. r0) then Some d else None
          | Ok _ | Error _ ->
            (* defensive: a state the packager or checker rejects never
               replaces the greedy seed *)
            Telemetry.incr "anneal.invalid";
            None
        else None
      in
      let stats =
        {
          attempted;
          accepted;
          pruned;
          exchanges = !exchanged;
          chain_count = nchains;
          improved = result <> None;
        }
      in
      Telemetry.add "anneal.moves" stats.attempted;
      Telemetry.add "anneal.accepted" stats.accepted;
      Telemetry.add "anneal.pruned" stats.pruned;
      Telemetry.add "anneal.exchanges" stats.exchanges;
      if stats.improved then Telemetry.incr "anneal.improved";
      (result, stats))

let synthesize ?scheduler ?strategy ?cache ?(params = default_params) g lib ~ld ~ad =
  match Engine.synthesize ?scheduler ?strategy ?cache g lib ~ld ~ad with
  | Error _ as e -> e
  | Ok greedy ->
    let better, stats = improve ~params ~ld ~ad greedy in
    let final =
      match better with
      | Some d when Design.reliability d > Design.reliability greedy -> d
      | Some _ | None -> greedy
    in
    Ok (greedy, final, stats)

(* --- test surfaces ---------------------------------------------------- *)

let run_chain_for_test ?(seed = 1) ?(temp = 0.08) ?(moves = 200) ~ld ~ad d =
  let st = state_of_design d ~ld ~ad in
  let rng = Rng.create seed in
  let acc = ref [] in
  for _ = 1 to moves do
    match step st rng temp with
    | `Pruned | `Rejected -> ()
    | `Accepted -> (
      match design_of_snap st.g st.lib (snap_of st) with
      | Ok d -> acc := d :: !acc
      | Error e -> failwith ("anneal state failed to package: " ^ e))
  done;
  List.rev !acc

let frozen_replay_check ?(seed = 1) ~ld ~ad d =
  let st = state_of_design d ~ld ~ad in
  match frozen st with
  | None -> Ok false
  | Some fz ->
    let moves = 400 in
    let rng = Rng.create seed in
    let chain () =
      {
        cid = 0;
        st = copy_state st;
        rng = Rng.copy rng;
        temp = default_params.t0;
        best = snap_of st;
        attempted = 0;
        accepted = 0;
        pruned = 0;
      }
    in
    let moved = chain () and replayed = chain () in
    run_moves moved moves;
    replay_moves fz replayed moves;
    (* splitmix64 maps its state to the next draw one to one, so equal
       next draws mean equal stream states *)
    let next_moved = Rng.int64 moved.rng and next_replayed = Rng.int64 replayed.rng in
    if moved.accepted <> 0 then
      Error
        (Printf.sprintf "a state proven frozen accepted %d of %d moves (ld %d ad %d)"
           moved.accepted moves ld ad)
    else if moved.attempted <> replayed.attempted || moved.pruned <> replayed.pruned then
      Error
        (Printf.sprintf
           "replay disagrees with the moves: attempted %d vs %d, pruned %d vs %d (ld %d ad %d)"
           moved.attempted replayed.attempted moved.pruned replayed.pruned ld ad)
    else if not (Int64.equal next_moved next_replayed) then
      Error (Printf.sprintf "replay leaves the RNG stream elsewhere (ld %d ad %d)" ld ad)
    else Ok true

let optimum ?(max_nodes = 6) g lib ~ld ~ad =
  let n = Dfg.node_count g in
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf "Anneal.optimum: %d nodes exceed the exhaustive bound %d" n
         max_nodes);
  let versions =
    Array.init n (fun id ->
        Array.of_list
          (Library.versions lib (Op.resource_class (Dfg.node g id).Dfg.op)))
  in
  if ld < 1 || ad < 1 || Array.exists (fun a -> Array.length a = 0) versions then None
  else begin
    let chosen = Array.make n versions.(0).(0) in
    let starts = Array.make n 0 in
    let best = ref None in
    (* minimal area over versions at a fixed schedule, by the left-edge
       theorem: instances of a version = its maximum interval overlap *)
    let min_area_of_starts () =
      let ids = Hashtbl.create 4 in
      Array.iter
        (fun (v : Resource.t) ->
          if not (Hashtbl.mem ids v.Resource.id) then Hashtbl.add ids v.Resource.id v)
        chosen;
      let total = ref 0 in
      Hashtbl.iter
        (fun _ (v : Resource.t) ->
          let overlap = ref 0 in
          for step = 0 to ld - 1 do
            let c = ref 0 in
            Array.iteri
              (fun i (vi : Resource.t) ->
                if
                  vi.Resource.id = v.Resource.id
                  && starts.(i) <= step
                  && step < starts.(i) + vi.Resource.delay
                then incr c)
              chosen;
            overlap := Int.max !overlap !c
          done;
          total := !total + (!overlap * v.Resource.area))
        ids;
      !total
    in
    (* is some precedence-feasible schedule of [chosen] within [ld]
       bindable within [ad]?  Node ids are a topological order by
       construction, so a DFS in id order over [max pred finish ..
       ALAP] start windows enumerates exactly the feasible schedules. *)
    let feasible () =
      let delay i = chosen.(i).Resource.delay in
      let asap = Array.make n 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        List.iter
          (fun p -> asap.(i) <- Int.max asap.(i) (asap.(p) + delay p))
          (Dfg.preds g i);
        if asap.(i) + delay i > ld then ok := false
      done;
      if not !ok then false
      else begin
        let alap = Array.make n 0 in
        for i = n - 1 downto 0 do
          let ub =
            List.fold_left (fun acc s -> Int.min acc alap.(s)) ld (Dfg.succs g i)
          in
          alap.(i) <- ub - delay i
        done;
        let exception Found in
        let rec go i =
          if i = n then begin
            if min_area_of_starts () <= ad then raise Found
          end
          else begin
            let lo =
              List.fold_left
                (fun acc p -> Int.max acc (starts.(p) + delay p))
                0 (Dfg.preds g i)
            in
            for s = lo to alap.(i) do
              starts.(i) <- s;
              go (i + 1)
            done
          end
        in
        try
          go 0;
          false
        with Found -> true
      end
    in
    let rec assign i r =
      if i = n then begin
        match !best with
        | Some br when r <= br -> ()
        | _ -> if feasible () then best := Some r
      end
      else
        Array.iter
          (fun v ->
            chosen.(i) <- v;
            assign (i + 1) (r *. v.Resource.reliability))
          versions.(i)
    in
    assign 0 1.0;
    !best
  end

(* --- fuzz properties --------------------------------------------------- *)

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun (v : Check.violation) -> Printf.sprintf "[%s] %s" v.Check.invariant v.Check.detail)
       vs)

(* Random library + bounds straddling the feasibility knee, the same
   recipe as the sweep's explore-differential property. *)
let fuzz_bounds ~aux g lib =
  let fastest (nd : Dfg.node) =
    List.fold_left
      (fun acc (r : Resource.t) -> Int.min acc r.Resource.delay)
      max_int
      (Library.versions lib (Op.resource_class nd.Dfg.op))
  in
  let asap = Analysis.asap_latency g ~delay:fastest in
  let ld = Int.max 1 (asap - 1 + Rng.int aux 5) in
  let max_area =
    Dfg.fold_nodes g ~init:0 (fun acc nd ->
        acc
        + List.fold_left
            (fun m (r : Resource.t) -> Int.max m r.Resource.area)
            0
            (Library.versions lib (Op.resource_class nd.Dfg.op)))
  in
  let ad = 1 + Rng.int aux (3 * Int.max 1 max_area) in
  (ld, ad)

let () =
  Fuzz.register_property ~name:"anneal-dominates-greedy" (fun ~aux spec ->
      let g = Gen.graph_of_spec spec in
      let lib = Gen.random_library aux in
      let ld, ad = fuzz_bounds ~aux g lib in
      let params =
        {
          default_params with
          seed = 1 + Rng.int aux 1_000_000;
          moves = 120;
          chains = 2;
          exchange = 30;
        }
      in
      match synthesize ~params g lib ~ld ~ad with
      | Error _ -> Ok ()  (* greedy infeasible: nothing to dominate *)
      | Ok (greedy, annealed, _) ->
        if Design.reliability annealed < Design.reliability greedy then
          Error
            (Printf.sprintf
               "annealed reliability %.17g below the greedy seed's %.17g (ld %d ad %d)"
               (Design.reliability annealed) (Design.reliability greedy) ld ad)
        else if Design.latency annealed > ld || Design.area annealed > ad then
          Error
            (Printf.sprintf "annealed design breaks the bounds: latency %d/%d area %d/%d"
               (Design.latency annealed) ld (Design.area annealed) ad)
        else begin
          match Check.design_violations annealed with
          | [] -> Ok ()
          | vs -> Error ("annealed design invalid: " ^ pp_violations vs)
        end)

let () =
  Fuzz.register_property ~name:"anneal-deterministic" (fun ~aux spec ->
      let g = Gen.graph_of_spec spec in
      let lib = Gen.random_library aux in
      let ld, ad = fuzz_bounds ~aux g lib in
      let params =
        {
          default_params with
          seed = 1 + Rng.int aux 1_000_000;
          moves = 90;
          chains = 3;
          exchange = 30;
        }
      in
      let render = function
        | Error f -> Format.asprintf "error: %a" Engine.pp_failure f
        | Ok (greedy, annealed, (s : stats)) ->
          Printf.sprintf "g=%.17g a=%.17g area=%d latency=%d versions=%s acc=%d pruned=%d exch=%d"
            (Design.reliability greedy) (Design.reliability annealed)
            (Design.area annealed) (Design.latency annealed)
            (String.concat ","
               (List.map
                  (fun ((r : Resource.t), k) -> Printf.sprintf "%s:%d" r.Resource.id k)
                  (Design.version_histogram annealed)))
            s.accepted s.pruned s.exchanges
      in
      (* the second run reads the engine cache the first one filled *)
      let cache = Engine.create_cache () in
      let run () = render (synthesize ~cache ~params g lib ~ld ~ad) in
      let cold = run () in
      let warm = run () in
      if String.equal cold warm then Ok ()
      else
        Error
          (Printf.sprintf
             "anneal result depends on the engine cache:\n  cold -> %s\n  warm -> %s" cold
             warm))

(* The greedy seed of a fuzz cell, checked by [frozen_replay_check]. *)
let frozen_replay_case ~aux spec =
  let g = Gen.graph_of_spec spec in
  let lib = Gen.random_library aux in
  let ld, ad = fuzz_bounds ~aux g lib in
  let seed = 1 + Rng.int aux 1_000_000 in
  match Engine.synthesize g lib ~ld ~ad with
  | Error _ -> Ok false
  | Ok greedy -> frozen_replay_check ~seed ~ld ~ad greedy

let () =
  Fuzz.register_property ~name:"anneal-frozen-replay" (fun ~aux spec ->
      Result.map ignore (frozen_replay_case ~aux spec))
