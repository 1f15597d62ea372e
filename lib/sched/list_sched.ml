open Rchls_dfg

let priorities g ~delay =
  (* Longest path from node start to any sink, inclusive of own delay. *)
  let n = Dfg.node_count g in
  let dist = Array.make n 0 in
  List.iter
    (fun (nd : Dfg.node) ->
      let best =
        List.fold_left (fun acc s -> Int.max acc dist.(s)) 0 (Dfg.succs g nd.id)
      in
      dist.(nd.id) <- delay nd + best)
    (List.rev (Dfg.topological g));
  dist

(* The dispatch loop on raw arrays: event-driven ready tracking (a node
   enters the pool at the step its last predecessor finishes) instead
   of re-filtering every node at every step, and no [Schedule.t]
   construction — callers probing many limit vectors (the min-area
   packer) read the achieved latency straight off.  Dispatch order is
   identical to the historical whole-graph filter: the pool is kept
   sorted by (priority desc, id asc) and non-fitting operations stay
   pooled.
   A dispatcher precomputes everything that does not depend on the
   limit vector — delays, dense group codes (so occupancy is a flat
   int-array lookup instead of a polymorphic-hash table keyed by
   (group, step) tuples; group keys are strings in the synthesis path),
   predecessor counts, each node's rank under the priority order — and
   owns reusable scratch arrays, the ready pool and the per-step
   arrival lists among them, so a dispatch allocates nothing.  Callers
   probing many limit vectors against one priority (the min-area
   packer) pay the setup once. *)
type 'k dispatcher = {
  g : Dfg.t;
  n : int;
  delays : int array;
  horizon : int;
  row : int;  (* busy-array row width: horizon + max delay + 2 *)
  gcodes : int array;
  reps : 'k array;  (* representative group value per dense code *)
  pred_count : int array;
  rank : int array;  (* position of each node under (prio desc, id asc) *)
  (* scratch, reset per dispatch *)
  starts : int array;
  busy : int array;
  blocked : bool array;
  pending : int array;
  ready_at : int array;
  arrivals : int array;
      (* per step, the first node that becomes ready then, or -1; the
         rest of the step's list is chained through [next] *)
  next : int array;
  pool : int array;  (* the ready pool, a prefix sorted by rank *)
}

let dispatcher g ~delay ~group ~prio =
  let n = Dfg.node_count g in
  let delays = Array.init n (fun id -> delay (Dfg.node g id)) in
  (* Fully sequential execution is the worst case. *)
  let horizon = Array.fold_left ( + ) 1 delays in
  let code_of = Hashtbl.create 8 in
  let reps = ref [] in
  let gcodes =
    Array.init n (fun id ->
        let k = group (Dfg.node g id) in
        match Hashtbl.find_opt code_of k with
        | Some c -> c
        | None ->
          let c = Hashtbl.length code_of in
          Hashtbl.add code_of k c;
          reps := k :: !reps;
          c)
  in
  let reps = Array.of_list (List.rev !reps) in
  let max_delay = Array.fold_left Int.max 1 delays in
  let row = horizon + max_delay + 2 in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare prio.(b) prio.(a)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  {
    g;
    n;
    delays;
    horizon;
    row;
    gcodes;
    reps;
    pred_count = Array.init n (fun id -> List.length (Dfg.preds g id));
    rank;
    starts = Array.make n (-1);
    busy = Array.make (Array.length reps * row) 0;
    blocked = Array.make (Array.length reps) false;
    pending = Array.make n 0;
    ready_at = Array.make n 0;
    arrivals = Array.make (horizon + 2) (-1);
    next = Array.make n (-1);
    pool = Array.make n 0;
  }

let groups t = t.reps
let group_code t id = t.gcodes.(id)
let blocked t = t.blocked

(* Queue [id] on the arrival list of step [at]. *)
let arrive t id at =
  t.next.(id) <- t.arrivals.(at);
  t.arrivals.(at) <- id

(* A node that finishes at [finish] releases its successors: each
   counts one predecessor off, and one whose last predecessor this was
   arrives at the step its latest predecessor finishes. *)
let rec release t finish = function
  | [] -> ()
  | sc :: rest ->
    t.pending.(sc) <- t.pending.(sc) - 1;
    if finish > t.ready_at.(sc) then t.ready_at.(sc) <- finish;
    if t.pending.(sc) = 0 then arrive t sc t.ready_at.(sc);
    release t finish rest

(* One dispatch under [limits] (indexed by dense group code).  Returns
   the start array (aliasing the dispatcher's scratch — consume before
   the next dispatch) and the achieved latency; [blocked] is left
   holding which groups had an operation fail its fit check.  Each step
   inserts its arrivals into the pool in rank order, dispatches the
   pool front to back and compacts what does not fit in place, so the
   pool stays sorted by rank. *)
let dispatch t ~limits =
  let { g; n; delays; horizon; row; gcodes; rank; starts; busy; blocked; pool; _ } = t in
  Array.fill starts 0 n (-1);
  Array.fill busy 0 (Array.length busy) 0;
  Array.fill blocked 0 (Array.length blocked) false;
  Array.blit t.pred_count 0 t.pending 0 n;
  Array.fill t.ready_at 0 n 0;
  Array.fill t.arrivals 0 (Array.length t.arrivals) (-1);
  for id = 0 to n - 1 do
    if t.pending.(id) = 0 then arrive t id 0
  done;
  let size = ref 0 in
  let unscheduled = ref n in
  let latency = ref 0 in
  let step = ref 0 in
  while !unscheduled > 0 do
    let id = ref t.arrivals.(!step) in
    while !id >= 0 do
      let r = rank.(!id) in
      let i = ref !size in
      while !i > 0 && rank.(pool.(!i - 1)) > r do
        pool.(!i) <- pool.(!i - 1);
        decr i
      done;
      pool.(!i) <- !id;
      incr size;
      id := t.next.(!id)
    done;
    let kept = ref 0 in
    for i = 0 to !size - 1 do
      let id = pool.(i) in
      let k = gcodes.(id) in
      let lim = limits.(k) in
      let stop = !step + delays.(id) in
      let base = k * row in
      let s = ref !step in
      while !s < stop && busy.(base + !s) < lim do
        incr s
      done;
      if !s >= stop then begin
        starts.(id) <- !step;
        decr unscheduled;
        if stop > !latency then latency := stop;
        for s = !step to stop - 1 do
          busy.(base + s) <- busy.(base + s) + 1
        done;
        release t stop (Dfg.succs g id)
      end
      else begin
        blocked.(k) <- true;
        pool.(!kept) <- id;
        incr kept
      end
    done;
    size := !kept;
    incr step;
    if !step > horizon then failwith "List_sched.run: no progress (bug)"
  done;
  (starts, !latency)

let limits_of t ~limit = Array.map limit t.reps

let check_limits g ~group ~limit =
  match
    List.find_opt (fun (nd : Dfg.node) -> limit (group nd) <= 0) (Dfg.nodes g)
  with
  | Some nd ->
    Error (Printf.sprintf "group of node %s has non-positive limit" nd.name)
  | None -> Ok ()

let run ?priority_latency g ~delay ~group ~limit =
  match check_limits g ~group ~limit with
  | Error e -> Error e
  | Ok () ->
    let prio =
      (* Higher value = dispatched first. *)
      match priority_latency with
      | Some horizon when horizon >= Analysis.asap_latency g ~delay ->
        Array.map (fun latest -> -latest) (Analysis.alap g ~delay ~latency:horizon)
      | _ -> priorities g ~delay
    in
    let t = dispatcher g ~delay ~group ~prio in
    let starts, _ = dispatch t ~limits:(limits_of t ~limit) in
    Schedule.make g ~delay ~starts

(* The historical dispatch loop, kept verbatim as the old-equivalent
   reference: every step re-filters the whole node set for readiness
   and tracks occupancy in a polymorphic-hash table keyed by
   (group, step).  Used by the benchmark's reference arm and as the
   oracle for the dispatch-equivalence property tests. *)
let run_reference ?priority_latency g ~delay ~group ~limit =
  match check_limits g ~group ~limit with
  | Error e -> Error e
  | Ok () ->
    let n = Dfg.node_count g in
    let prio =
      match priority_latency with
      | Some horizon when horizon >= Analysis.asap_latency g ~delay ->
        Array.map (fun latest -> -latest) (Analysis.alap g ~delay ~latency:horizon)
      | _ -> priorities g ~delay
    in
    let starts = Array.make n (-1) in
    let unscheduled = ref n in
    let busy = Hashtbl.create 64 in
    let occupancy k step = Option.value (Hashtbl.find_opt busy (k, step)) ~default:0 in
    let occupy k step = Hashtbl.replace busy (k, step) (occupancy k step + 1) in
    let horizon = List.fold_left (fun acc nd -> acc + delay nd) 1 (Dfg.nodes g) in
    let step = ref 0 in
    while !unscheduled > 0 do
      let ready =
        List.filter
          (fun (nd : Dfg.node) ->
            starts.(nd.id) < 0
            && List.for_all
                 (fun p -> starts.(p) >= 0 && starts.(p) + delay (Dfg.node g p) <= !step)
                 (Dfg.preds g nd.id))
          (Dfg.nodes g)
      in
      let ready =
        List.sort
          (fun (a : Dfg.node) b ->
            let c = compare prio.(b.id) prio.(a.id) in
            if c <> 0 then c else compare a.id b.id)
          ready
      in
      List.iter
        (fun (nd : Dfg.node) ->
          let k = group nd in
          let d = delay nd in
          let fits =
            let rec check s = s >= !step + d || (occupancy k s < limit k && check (s + 1)) in
            check !step
          in
          if fits then begin
            starts.(nd.id) <- !step;
            decr unscheduled;
            for s = !step to !step + d - 1 do
              occupy k s
            done
          end)
        ready;
      incr step;
      if !step > horizon then failwith "List_sched.run: no progress (bug)"
    done;
    Schedule.make g ~delay ~starts

let run_exn ?priority_latency g ~delay ~group ~limit =
  match run ?priority_latency g ~delay ~group ~limit with
  | Ok s -> s
  | Error e -> failwith ("List_sched.run: " ^ e)
