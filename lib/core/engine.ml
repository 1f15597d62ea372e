open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Analysis = Rchls_dfg.Analysis
module Binding = Rchls_binding.Binding
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace
module Request = Rchls_api.Request

type failure = Rchls_api.Response.failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string

let pp_failure ppf = function
  | Latency_infeasible { best_achievable } ->
    Format.fprintf ppf "no solution: latency bound unreachable (best %d)" best_achievable
  | Area_infeasible { best_achieved } ->
    Format.fprintf ppf "no solution: area bound unreachable (best %d)" best_achieved
  | Scheduling_error e -> Format.fprintf ppf "no solution: scheduling failed (%s)" e

(* --- context ------------------------------------------------------- *)

(* The evaluation cache is two memos, sharded so one cache can be
   shared across domains: between the [Best] strategy's two
   directions, and across every cell of a design-space sweep, whose
   rows run on worker domains.  The design memo
   maps the int64 FNV-1a fingerprint of (interned version codes,
   latency) to the realized design.  Beside it sits the schedule memo:
   the first-stage scheduler's result keyed by the exact (scheduler,
   latency, delay vector) it read.  Versions that share a delay share
   a schedule, so a design miss often finds its schedule already
   computed.  Every value is a deterministic function of its key's
   preimage, so concurrent insert order never changes what a lookup
   returns, and an eviction only costs a recomputation.

   The bounds are per cache; the largest working set of a perfbench
   workload is under half of each (DESIGN.md, the memo table). *)

module Memo = Rchls_util.Memo

type cache = {
  designs : (int64, (Design.t, string) result) Memo.t;
  schedules : (string, (Rchls_sched.Schedule.t, string) result) Memo.t;
}

let cache_shards = 16
let design_max_entries = 4096
let design_max_bytes = 16 lsl 20
let schedule_max_entries = 2048
let schedule_max_bytes = 4 lsl 20

(* Entry costs in bytes: the table bucket, the boxed key and the
   result box come to about nine words beside the key's and the
   value's own blocks; an error is its message. *)
let word = Sys.word_size / 8
let result_bytes bytes = function Ok v -> bytes v | Error e -> String.length e + (4 * word)

(* A schedule is a record and two int arrays of one slot per node. *)
let schedule_bytes s =
  word * ((2 * Dfg.node_count (Rchls_sched.Schedule.graph s)) + 7)

let create_cache () =
  {
    designs =
      Memo.create ~name:"cache" ~shards:cache_shards ~max_entries:design_max_entries
        ~max_bytes:design_max_bytes
        ~cost:(fun _ r -> (9 * word) + result_bytes Design.footprint_bytes r)
        ();
    schedules =
      Memo.create ~name:"cache.schedule" ~shards:cache_shards
        ~max_entries:schedule_max_entries ~max_bytes:schedule_max_bytes
        ~cost:(fun k r -> (8 * word) + String.length k + result_bytes schedule_bytes r)
        ();
  }

type ctx = {
  graph : Dfg.t;
  library : Library.t;
  ld : int;
  ad : int;
  scheduler : Design.scheduler;
  use_cache : bool;
  cache : cache;
  assignment : Resource.t array;
  codes : int array;
      (* interned library code of each node's version, kept in sync
         with [assignment]; the raw material of [fingerprint] *)
  asap : int array;
      (* earliest starts under the current assignment, maintained
         incrementally by [assign] *)
  topo : int array;  (* node ids in topological order *)
  rank : int array;  (* inverse of [topo]: position of each id *)
  dirty : bool array;
      (* [assign]'s worklist: nodes whose ASAP may be stale; all false
         between calls *)
  mutable schedule_latency : int;
  mutable design : Design.t option;
  mutable ad_lo : int;
  mutable ad_hi : int;
      (* Certified area-bound interval.  Every decision the pipeline
         takes that depends on [ad] is a comparison [a <= ad] for some
         integer area [a]; each one narrows [ad_lo, ad_hi] to the area
         bounds for which the comparison resolves the same way.  On
         completion the interval is exactly the set of bounds that
         provably replay the identical decision path — and therefore
         the identical result.  The design-space explorer fills whole
         grid intervals from one synthesis call on the strength of
         this. *)
}

let delay_of ctx (nd : Dfg.node) = ctx.assignment.(nd.id).Resource.delay

let asap_of_preds ctx id =
  List.fold_left
    (fun acc p -> Int.max acc (ctx.asap.(p) + ctx.assignment.(p).Resource.delay))
    0 (Dfg.preds ctx.graph id)

let create ?(scheduler = `Density) ?cache ?(use_cache = true) g lib ~ld ~ad ~initial =
  let assignment =
    Array.of_list (List.map (fun nd -> (initial nd : Resource.t)) (Dfg.nodes g))
  in
  let n = Array.length assignment in
  let topo =
    Array.of_list (List.map (fun (nd : Dfg.node) -> nd.id) (Dfg.topological g))
  in
  let rank = Array.make n 0 in
  Array.iteri (fun pos id -> rank.(id) <- pos) topo;
  let ctx =
    {
      graph = g;
      library = lib;
      ld;
      ad;
      scheduler;
      use_cache;
      cache = (match cache with Some c -> c | None -> create_cache ());
      assignment;
      codes = Array.map (fun (r : Resource.t) -> Library.intern_exn lib r.id) assignment;
      asap = Array.make n 0;
      topo;
      rank;
      dirty = Array.make n false;
      schedule_latency = 0;
      design = None;
      ad_lo = 1;
      ad_hi = max_int;
    }
  in
  (* One forward scan in topological order settles every ASAP. *)
  Array.iter (fun id -> ctx.asap.(id) <- asap_of_preds ctx id) topo;
  ctx

let graph ctx = ctx.graph
let version_of ctx id = ctx.assignment.(id)
let design ctx = ctx.design

let assign ctx moves =
  let changed = ref 0 and first = ref (Array.length ctx.topo) in
  let mark s =
    ctx.dirty.(s) <- true;
    if ctx.rank.(s) < !first then first := ctx.rank.(s)
  in
  List.iter
    (fun (id, (v : Resource.t)) ->
      let old = ctx.assignment.(id) in
      ctx.assignment.(id) <- v;
      ctx.codes.(id) <- Library.intern_exn ctx.library v.Resource.id;
      if old.Resource.delay <> v.Resource.delay then begin
        incr changed;
        List.iter mark (Dfg.succs ctx.graph id)
      end)
    moves;
  if !changed > 0 then begin
    (* A node's ASAP only depends on its predecessors, so a delay
       change propagates strictly downstream.  One sweep in topological
       order from the earliest marked node reaches the fixpoint of
       every move at once; each node is cleared as it is scanned. *)
    Telemetry.add "latency.sparse_updates" !changed;
    for pos = !first to Array.length ctx.topo - 1 do
      let j = ctx.topo.(pos) in
      if ctx.dirty.(j) then begin
        ctx.dirty.(j) <- false;
        let a = asap_of_preds ctx j in
        if a <> ctx.asap.(j) then begin
          ctx.asap.(j) <- a;
          List.iter (fun s -> ctx.dirty.(s) <- true) (Dfg.succs ctx.graph j)
        end
      end
    done
  end

let set_version ctx id v = assign ctx [ (id, v) ]

let asap_of ctx id = ctx.asap.(id)

let current_latency ctx =
  let l = ref 0 in
  Array.iteri
    (fun id (r : Resource.t) -> l := Int.max !l (ctx.asap.(id) + r.Resource.delay))
    ctx.assignment;
  !l

let full_latency ctx = Analysis.asap_latency ctx.graph ~delay:(delay_of ctx)

(* Pack the interned version codes and the latency into one 64-bit
   FNV-1a word.  Replaces the historical comma-joined id string: no
   allocation, and the key doubles as the cache's shard selector.
   Collision safety over the full cross product of library versions is
   unit-tested (FNV mixes every byte of every code). *)
let fingerprint ctx ~latency =
  let h = ref (Rchls_util.Fnv.fold_int Rchls_util.Fnv.seed latency) in
  Array.iter (fun code -> h := Rchls_util.Fnv.fold_int !h code) ctx.codes;
  !h

(* Externally installed design checker (the correctness layer in
   [Rchls_check], which depends on this library and so cannot be a
   direct dependency).  When installed, every freshly computed design
   is validated before it enters the evaluation cache, and
   [default_pipeline] appends the [check] pass. *)
let design_checker : (Design.t -> unit) option Atomic.t = Atomic.make None
let set_design_checker f = Atomic.set design_checker f
let design_checker_installed () = Atomic.get design_checker <> None

let run_checker d =
  match Atomic.get design_checker with None -> () | Some f -> f d

(* The schedule memo's key: the scheduler, the latency and every
   node's delay, written out in full (one byte per delay below 255, an
   escape byte and eight bytes otherwise) so that two keys are equal
   exactly when their preimages are.  The first-stage scheduler reads
   nothing else, so equal keys ask for equal schedules. *)
let schedule_key ctx ~latency =
  let b = Buffer.create (Array.length ctx.assignment + 9) in
  Buffer.add_char b
    (match ctx.scheduler with
    | `Density -> 'd'
    | `Density_reference -> 'r'
    | `Force_directed -> 'f');
  Buffer.add_int64_le b (Int64.of_int latency);
  Array.iter
    (fun (r : Resource.t) ->
      let d = r.Resource.delay in
      if d >= 0 && d < 255 then Buffer.add_uint8 b d
      else begin
        Buffer.add_uint8 b 255;
        Buffer.add_int64_le b (Int64.of_int d)
      end)
    ctx.assignment;
  Buffer.contents b

let memo_schedule ctx ~latency () =
  Memo.find_or_add ctx.cache.schedules (schedule_key ctx ~latency) (fun () ->
      Design.first_schedule ~scheduler:ctx.scheduler ctx.graph ~delay:(delay_of ctx)
        ~latency)

let realize ctx ~latency =
  Telemetry.incr "engine.realize";
  let assignment (nd : Dfg.node) = ctx.assignment.(nd.id) in
  let checked r =
    (match r with Ok d -> run_checker d | Error _ -> ());
    r
  in
  if not ctx.use_cache then
    checked (Design.realize ~scheduler:ctx.scheduler ctx.graph ctx.library ~assignment ~latency)
  else
    Memo.find_or_add ctx.cache.designs (fingerprint ctx ~latency) (fun () ->
        Trace.with_span "engine.design_eval" (fun () ->
            checked
              (Design.realize_scheduled ~scheduler:ctx.scheduler ctx.graph ctx.library
                 ~assignment ~latency ~schedule:(memo_schedule ctx ~latency))))

let realize_current ctx = realize ctx ~latency:ctx.schedule_latency

(* --- shared stage helpers ------------------------------------------ *)

(* Move every operation of [ids] to [to_version] in one [assign];
   the returned function restores their versions, again in one. *)
let move ctx ~ids ~to_version =
  let olds = List.map (fun id -> (id, ctx.assignment.(id))) ids in
  assign ctx (List.map (fun id -> (id, (to_version : Resource.t))) ids);
  fun () -> assign ctx olds

(* Apply one version move to [ids], validated by [guard] (checked
   after the tentative assignment, before the reschedule) and by
   [accept] on the realized design; reverts and returns [None] on
   failure, keeps the move and returns the design otherwise. *)
let try_move ctx ~ids ~to_version ~guard ~accept =
  let revert = move ctx ~ids ~to_version in
  if not (guard ()) then begin
    revert ();
    None
  end
  else
    match realize_current ctx with
    | Error _ ->
      revert ();
      None
    | Ok d ->
      if not (accept d) then begin
        revert ();
        None
      end
      else Some d

(* Subset moves: the K most [mobility]-mobile operations satisfying
   [from] move together, K halving from the group size to 1.  The
   subsets are a lazy stream, built only as far as a consumer reads. *)
let subset_ids ?(exhaustive = false) ctx ~(mobility : int array) ~from =
  let movable =
    List.rev
      (Dfg.fold_nodes ctx.graph ~init:[] (fun acc nd ->
           if from nd then nd :: acc else acc))
  in
  let by_mobility =
    List.stable_sort
      (fun (a : Dfg.node) b -> Int.compare mobility.(b.id) mobility.(a.id))
      movable
  in
  let total = List.length by_mobility in
  (* Prefix sizes: halving from the whole group to 1 keeps the
     refinement trajectory stable; the recovery stage asks for every
     size (it only runs when the design is otherwise infeasible, so
     exhaustiveness beats path elegance). *)
  let sizes =
    if total = 0 then []
    else if exhaustive then List.init total (fun i -> total - i)
    else begin
      let rec halve k acc = if k <= 1 then 1 :: acc else halve (k / 2) (k :: acc) in
      List.rev (halve total [])
    end
  in
  Seq.map
    (fun k ->
      List.filteri (fun i _ -> i < k) by_mobility |> List.map (fun (nd : Dfg.node) -> nd.id))
    (List.to_seq sizes)

(* The (class, version, subset) moves of one round, in that order, as
   a lazy stream: [from nd v] says whether operation [nd], of [v]'s
   class, may move to version [v].  Mobility (ALAP - ASAP start) is
   measured against the current scheduling horizon, once per round:
   every candidate sees the same assignment. *)
let candidates ?exhaustive ctx ~from =
  let asap, alap =
    Rchls_sched.Density.constrained_ranges ctx.graph ~delay:(delay_of ctx)
      ~latency:ctx.schedule_latency
      ~fixed:(fun _ -> None)
  in
  let mobility = Array.mapi (fun id lo -> alap.(id) - lo) asap in
  List.to_seq (Dfg.count_by_class ctx.graph)
  |> Seq.concat_map (fun (cls, _) ->
         List.to_seq (Library.versions ctx.library cls)
         |> Seq.concat_map (fun (v : Resource.t) ->
                Seq.map
                  (fun ids -> (ids, v))
                  (subset_ids ?exhaustive ctx ~mobility
                     ~from:(fun (nd : Dfg.node) ->
                       Op.resource_class nd.op = cls && from nd v))))

let the_design ctx =
  match ctx.design with
  | Some d -> d
  | None -> failwith "Engine: pass ran before a design was realized"

(* The one comparison through which every pass consults the area
   bound.  [a <= ad] holds for all ad' >= a, fails for all ad' < a;
   recording the tighter side keeps [ad_lo, ad_hi] equal to the exact
   set of bounds replaying this decision path.  Decisions must never
   read [ad_lo]/[ad_hi] back — the interval is an output, not state. *)
let fits ctx a =
  if a <= ctx.ad then begin
    if a > ctx.ad_lo then ctx.ad_lo <- a;
    true
  end
  else begin
    if a - 1 < ctx.ad_hi then ctx.ad_hi <- a - 1;
    false
  end

(* Every algorithm decision is a structured instant event on the Trace
   layer ([engine.*]); the CLI's [--trace] printer and [--trace-out]
   exports read them.  Each emitter tests [Trace.enabled ()] first, so
   an untraced run builds no attribute list. *)
let node_names ctx ids =
  String.concat "," (List.map (fun id -> (Dfg.node ctx.graph id).name) ids)

let area_downgrade ctx ids ~from ~to_ d =
  if Trace.enabled () then
    Trace.instant "engine.area_downgrade"
      ~attrs:
        [
          ("nodes", Trace.Str (node_names ctx ids));
          ("from", Trace.Str from);
          ("to", Trace.Str to_);
          ("area", Trace.Int (Design.area d));
        ]

(* --- passes -------------------------------------------------------- *)

type pass = { name : string; run : ctx -> (unit, failure) result }

let initial_alloc =
  {
    name = "initial_alloc";
    run =
      (fun ctx ->
        Telemetry.incr "engine.runs";
        if Trace.enabled () then
          Trace.instant "engine.initial"
            ~attrs:[ ("latency", Trace.Int (current_latency ctx)) ];
        Ok ());
  }

(* Lines 7-12: meet the latency bound. *)
let meet_latency =
  {
    name = "meet_latency";
    run =
      (fun ctx ->
        let latency_ok = ref (current_latency ctx <= ctx.ld) in
        let progress = ref true in
        while (not !latency_ok) && !progress do
          progress := false;
          let path = Analysis.critical_path ctx.graph ~delay:(delay_of ctx) in
          (* Victims in decreasing delay; the first with a faster
             version available wins, and it moves to the most reliable
             faster version. *)
          let victims =
            List.stable_sort
              (fun (a : Dfg.node) b -> compare (delay_of ctx b) (delay_of ctx a))
              path
          in
          let candidate =
            List.find_map
              (fun (nd : Dfg.node) ->
                match
                  Library.faster_versions ctx.library ~than:ctx.assignment.(nd.id)
                with
                | [] -> None
                | faster :: _ -> Some (nd, faster))
              victims
          in
          match candidate with
          | None -> ()
          | Some (nd, faster) ->
            let old = ctx.assignment.(nd.id) in
            set_version ctx nd.id faster;
            progress := true;
            Telemetry.incr "downgrade.steps";
            let l = current_latency ctx in
            if Trace.enabled () then
              Trace.instant "engine.latency_downgrade"
                ~attrs:
                  [
                    ("node", Trace.Str nd.name);
                    ("from", Trace.Str old.Resource.id);
                    ("to", Trace.Str faster.Resource.id);
                    ("latency", Trace.Int l);
                  ];
            if l <= ctx.ld then latency_ok := true
        done;
        if not !latency_ok then
          Error (Latency_infeasible { best_achievable = current_latency ctx })
        else Ok ());
  }

(* Lines 4-5 and 15-21: first realization at the achieved ASAP length,
   then exploit latency slack to share more. *)
let exploit_slack =
  {
    name = "exploit_slack";
    run =
      (fun ctx ->
        ctx.schedule_latency <- current_latency ctx;
        match realize_current ctx with
        | Error e -> Error (Scheduling_error e)
        | Ok d0 ->
          ctx.design <- Some d0;
          while
            (not (fits ctx (Design.area (the_design ctx))))
            && ctx.schedule_latency < ctx.ld
          do
            ctx.schedule_latency <- ctx.schedule_latency + 1;
            match realize_current ctx with
            | Error e -> failwith ("Engine: reschedule failed: " ^ e)
            | Ok d ->
              ctx.design <- Some d;
              if Trace.enabled () then
                Trace.instant "engine.slack_exploited"
                  ~attrs:
                    [
                      ("latency", Trace.Int ctx.schedule_latency);
                      ("area", Trace.Int (Design.area d));
                    ]
          done;
          Ok ());
  }

(* Lines 23-28: not-slower version downgrades.  Victims in decreasing
   version area; the operations sharing the victim's instance move
   with it.  The paper accepts every such move (the total assigned
   area strictly decreases, so the loop terminates). *)
let meet_area =
  {
    name = "meet_area";
    run =
      (fun ctx ->
        let made_progress = ref true in
        while (not (fits ctx (Design.area (the_design ctx)))) && !made_progress do
          let nodes_by_area =
            List.stable_sort
              (fun (a : Dfg.node) b ->
                compare ctx.assignment.(b.id).Resource.area
                  ctx.assignment.(a.id).Resource.area)
              (List.rev
                 (Dfg.fold_nodes ctx.graph ~init:[] (fun acc nd -> nd :: acc)))
          in
          made_progress :=
            List.exists
              (fun (nd : Dfg.node) ->
                match
                  Library.smaller_versions ctx.library ~than:ctx.assignment.(nd.id)
                with
                | [] -> false
                | smaller :: _ -> (
                  let old = ctx.assignment.(nd.id) in
                  let group =
                    nd.id
                    :: Binding.sharing_partners (Design.binding (the_design ctx)) nd.id
                  in
                  let ids =
                    List.filter
                      (fun id ->
                        String.equal ctx.assignment.(id).Resource.id old.Resource.id)
                      group
                  in
                  match
                    try_move ctx ~ids ~to_version:smaller
                      ~guard:(fun () -> true)
                      ~accept:(fun _ -> true)
                  with
                  | None -> false
                  | Some d ->
                    ctx.design <- Some d;
                    Telemetry.incr "downgrade.steps";
                    area_downgrade ctx ids ~from:old.Resource.id
                      ~to_:smaller.Resource.id d;
                    true))
              nodes_by_area
        done;
        Ok ());
  }

(* Recovery stage (extension, DESIGN.md par. 8): when the not-slower
   downgrades are exhausted, consider moving subsets of operations to
   any smaller version (possibly slower), as long as the latency bound
   still holds and the realized area shrinks; the schedule gets the
   full latency budget so slack can absorb the slower units.  A move
   whose occupancy lower bound already reaches the area to beat cannot
   shrink it, so it is rejected without being realized (DESIGN.md
   par. 10). *)
let recovery =
  {
    name = "recovery";
    run =
      (fun ctx ->
        if not (fits ctx (Design.area (the_design ctx))) then begin
          ctx.schedule_latency <- ctx.ld;
          (match realize_current ctx with
          | Error e -> failwith ("Engine: reschedule failed: " ^ e)
          | Ok d -> ctx.design <- Some d);
          let assignment (nd : Dfg.node) = ctx.assignment.(nd.id) in
          let made_progress = ref true in
          while (not (fits ctx (Design.area (the_design ctx)))) && !made_progress do
            let area_before = Design.area (the_design ctx) in
            let can_shrink () =
              Design.area_lower_bound ctx.graph ~assignment ~latency:ctx.schedule_latency
              < area_before
              || begin
                Telemetry.incr "recovery.bound_skips";
                false
              end
            in
            (* The first candidate, in (class, version, subset)
               order, whose move keeps the latency bound and shrinks
               the realized area commits. *)
            let commit (ids, (v : Resource.t)) =
              match
                try_move ctx ~ids ~to_version:v
                  ~guard:(fun () -> current_latency ctx <= ctx.ld && can_shrink ())
                  ~accept:(fun d -> Design.area d < area_before)
              with
              | None -> false
              | Some d ->
                ctx.design <- Some d;
                Telemetry.incr "downgrade.steps";
                area_downgrade ctx ids ~from:"mixed" ~to_:v.Resource.id d;
                true
            in
            made_progress :=
              Seq.exists commit
                (candidates ~exhaustive:true ctx ~from:(fun (nd : Dfg.node) v ->
                     ctx.assignment.(nd.id).Resource.area > v.Resource.area))
          done
        end;
        Ok ());
  }

(* Refinement pass (extension): with both bounds met, restore
   reliability wherever the remaining slack allows.  Steepest ascent
   over subset swaps: each round evaluates every (class, target
   version, K most-mobile operations) move and commits the one with
   the largest reliability gain. *)
let refine =
  {
    name = "refine";
    run =
      (fun ctx ->
        if fits ctx (Design.area (the_design ctx)) then begin
          (* Full latency budget maximizes sharing headroom for the
             upgrades, as long as it does not itself break the bound. *)
          (match realize ctx ~latency:ctx.ld with
          | Error _ -> ()
          | Ok d ->
            if fits ctx (Design.area d) then begin
              ctx.design <- Some d;
              ctx.schedule_latency <- ctx.ld
            end);
          (* Evaluate a move without keeping it: returns the realized
             design's reliability when it satisfies both bounds and
             improves on [base_r], always restoring the assignment.
             Its [fits] call narrows the certified interval whether or
             not the move wins. *)
          let evaluate_move ~ids ~to_version ~base_r =
            let revert = move ctx ~ids ~to_version in
            let result =
              if current_latency ctx > ctx.ld then None
              else
                match realize_current ctx with
                | Error _ -> None
                | Ok d ->
                  let r = Design.reliability d in
                  if fits ctx (Design.area d) && r > base_r +. 1e-15 then Some r else None
            in
            revert ();
            result
          in
          let improved = ref true in
          while !improved do
            improved := false;
            let base_r = Design.reliability (the_design ctx) in
            (* Steepest ascent: every (class, target version, subset)
               move is evaluated against the same base state, in
               enumeration order; the first strictly best move wins. *)
            let best =
              Seq.fold_left
                (fun best (ids, v) ->
                  match evaluate_move ~ids ~to_version:v ~base_r with
                  | None -> best
                  | Some r -> (
                    match best with
                    | Some (_, _, br) when br >= r -> best
                    | _ -> Some (ids, v, r)))
                None
                (candidates ctx ~from:(fun (nd : Dfg.node) v ->
                     ctx.assignment.(nd.id).Resource.reliability < v.Resource.reliability))
            in
            match best with
            | None -> ()
            | Some (ids, v, _) -> (
              let from_version = ctx.assignment.(List.hd ids).Resource.id in
              match
                try_move ctx ~ids ~to_version:v
                  ~guard:(fun () -> current_latency ctx <= ctx.ld)
                  ~accept:(fun d ->
                    fits ctx (Design.area d) && Design.reliability d > base_r +. 1e-15)
              with
              | None -> ()
              | Some d ->
                ctx.design <- Some d;
                improved := true;
                Telemetry.incr "refine.upgrades";
                if Trace.enabled () then
                  Trace.instant "engine.refine_upgrade"
                    ~attrs:
                      [
                        ("node", Trace.Str (node_names ctx ids));
                        ("from", Trace.Str from_version);
                        ("to", Trace.Str v.Resource.id);
                        ("reliability", Trace.Float (Design.reliability d));
                      ])
          done
        end;
        Ok ());
  }

(* Re-validate the pipeline's final design with the installed checker.
   [realize] already checks designs as they are computed, but cache
   hits skip the compute path — this pass guarantees the design about
   to be returned was checked at least once per pipeline run. *)
let check =
  {
    name = "check";
    run =
      (fun ctx ->
        (match ctx.design with Some d -> run_checker d | None -> ());
        Ok ());
  }

let default_pipeline ~refine:want_refine =
  [ initial_alloc; meet_latency; exploit_slack; meet_area; recovery ]
  @ (if want_refine then [ refine ] else [])
  @ (if design_checker_installed () then [ check ] else [])

(* Lines 29-30: final bound check. *)
let finalize ctx =
  match ctx.design with
  | None -> Error (Scheduling_error "pipeline realized no design")
  | Some d ->
    if not (fits ctx (Design.area d)) then
      Error (Area_infeasible { best_achieved = Design.area d })
    else if Design.latency d > ctx.ld then
      Error (Latency_infeasible { best_achievable = Design.latency d })
    else Ok d

let run_pipeline passes ctx =
  let rec go = function
    | [] -> finalize ctx
    | p :: rest -> (
      match Trace.with_span ("pass." ^ p.name) (fun () -> p.run ctx) with
      | Ok () -> go rest
      | Error e -> Error e)
  in
  go passes

(* --- driver -------------------------------------------------------- *)

type strategy = Request.strategy = Best | Figure6 | Bottom_up

let check_classes g lib =
  List.iter
    (fun (cls, _) ->
      match Library.versions lib cls with
      | [] ->
        invalid_arg
          (Printf.sprintf "Engine: library has no %s versions"
             (Resource.class_name cls))
      | _ -> ())
    (Dfg.count_by_class g)

let synthesize ?(scheduler = `Density) ?(refine = true) ?(strategy = Best)
    ?(use_cache = true) ?cache ?certificate g lib ~ld ~ad =
  if ld <= 0 then invalid_arg "Engine.synthesize: non-positive latency bound";
  if ad <= 0 then invalid_arg "Engine.synthesize: non-positive area bound";
  check_classes g lib;
  Trace.with_span "engine.synthesize"
    ~attrs:
      [
        ("graph", Trace.Str (Dfg.name g));
        ("ld", Trace.Int ld);
        ("ad", Trace.Int ad);
        ("strategy", Trace.Str (Request.name_of Request.strategies strategy));
      ]
  @@ fun () ->
  let pipeline = default_pipeline ~refine in
  (* One evaluation cache spans every direction tried: near convergence
     the two directions realize many identical assignments.  A caller
     may pass its own (e.g. the sweep driver shares one across all grid
     cells — the cache is sharded and mutex-protected exactly so it
     can cross domains). *)
  let cache = match cache with Some c -> c | None -> create_cache () in
  (* The certified interval of the whole call is the intersection of
     the intervals of every pipeline direction run: the result is a
     function of all of them, so it is provably identical exactly where
     all of their decision paths are. *)
  let cert_lo = ref 1 and cert_hi = ref max_int in
  let run_from direction initial =
    Trace.with_span "engine.pipeline" ~attrs:[ ("direction", Trace.Str direction) ]
    @@ fun () ->
    let ctx = create ~scheduler ~cache ~use_cache g lib ~ld ~ad ~initial in
    let r = run_pipeline pipeline ctx in
    if ctx.ad_lo > !cert_lo then cert_lo := ctx.ad_lo;
    if ctx.ad_hi < !cert_hi then cert_hi := ctx.ad_hi;
    r
  in
  let top_down () =
    run_from "top-down" (fun (nd : Dfg.node) ->
        Library.most_reliable lib (Op.resource_class nd.op))
  in
  let bottom_up () =
    run_from "bottom-up" (fun (nd : Dfg.node) ->
        Library.fastest lib (Op.resource_class nd.op))
  in
  let result =
    match strategy with
    | Figure6 -> top_down ()
    | Bottom_up -> bottom_up ()
    | Best -> (
      match (top_down (), bottom_up ()) with
      | (Ok a as ra), Ok b ->
        if Design.reliability a >= Design.reliability b then ra else Ok b
      | (Ok _ as r), Error _ | Error _, (Ok _ as r) -> r
      | (Error _ as e), Error _ -> e)
  in
  (match certificate with Some c -> c := (!cert_lo, !cert_hi) | None -> ());
  result
