open Rchls_netlist
module Rng = Rchls_util.Rng
module Stats = Rchls_util.Stats
module Memo = Rchls_util.Memo
module Pool = Rchls_util.Pool
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace

module Sampling = struct
  type t = All | Strided of int | Fraction of float

  let validate = function
    | All -> ()
    | Strided n ->
      if n <= 0 then invalid_arg "Fault_sim.Sampling: Strided count must be positive"
    | Fraction f ->
      if not (f > 0. && f <= 1.) then
        invalid_arg "Fault_sim.Sampling: Fraction must be in (0, 1]"

  (* Even stride keeps the sample deterministic and spread across the
     topological depth of the circuit. *)
  let strided n nets =
    let total = List.length nets in
    if total <= n then nets
    else begin
      let arr = Array.of_list nets in
      List.init n (fun i -> arr.(i * total / n))
    end

  let select t nets =
    validate t;
    match t with
    | All -> nets
    | Strided n -> strided n nets
    | Fraction f -> (
      match List.length nets with
      | 0 -> []
      | total -> strided (max 1 (int_of_float (ceil (f *. float_of_int total)))) nets)
end

type config = {
  vectors : int;
  seed : int;
  sampling : Sampling.t;
  ci_target : float option;
  domains : int option;
}

type node_result = {
  net : Netlist.net;
  kind : Gate.kind;
  logical_derating : float;
  observed : int;
  injected : int;
  ci_low : float;
  ci_high : float;
}

type report = {
  netlist_name : string;
  config : config;
  nodes : node_result list;
  sampled_fraction : float;
}

let candidate_nets nl =
  Array.to_list (Array.map (fun (g : Netlist.instance) -> g.out) (Netlist.gates nl))

let validate config =
  if config.vectors <= 0 then invalid_arg "Fault_sim: vectors must be positive";
  Sampling.validate config.sampling;
  (match config.ci_target with
  | Some t when t <= 0. -> invalid_arg "Fault_sim: ci_target must be positive"
  | _ -> ());
  match config.domains with
  | Some d when d < 1 -> invalid_arg "Fault_sim: domains must be >= 1"
  | _ -> ()

let ci_met config ~observed ~injected =
  match config.ci_target with
  | None -> false
  | Some target ->
    Stats.wilson_half_width ~successes:observed ~trials:injected () <= target

(* --- per-node injection engines ------------------------------------

   Both engines consume the node's private RNG in the identical order
   (vector-major, then input) and evaluate early termination at the
   identical batch boundaries (Eval_packed.lanes vectors), so their
   reports agree bit for bit — the packed engine is a pure speedup. *)

let packed_node nl st rng config net =
  let ins = Array.make (Array.length (Netlist.inputs nl)) 0 in
  let observed = ref 0 and injected = ref 0 and batches = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let lanes = min (config.vectors - !injected) Eval_packed.lanes in
    Rng.fill_lanes rng ins ~lanes;
    (* [run] returns a fresh array, so the good outputs survive the
       upset that overwrites the state. *)
    let good = Eval_packed.run st ins in
    let bad = Eval_packed.upset st ~flip_net:net in
    let diff = ref 0 in
    for o = 0 to Array.length good - 1 do
      diff := !diff lor (good.(o) lxor bad.(o))
    done;
    observed := !observed + Eval_packed.popcount (!diff land Eval_packed.lane_mask lanes);
    injected := !injected + lanes;
    incr batches;
    continue_ :=
      !injected < config.vectors
      && not (ci_met config ~observed:!observed ~injected:!injected)
  done;
  (!observed, !injected, !batches)

let scalar_node nl st_ok st_flip rng config net =
  let n_in = Array.length (Netlist.inputs nl) in
  let observed = ref 0 and injected = ref 0 and batches = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let lanes = min (config.vectors - !injected) Eval_packed.lanes in
    for _ = 1 to lanes do
      let ins = Array.init n_in (fun _ -> Rng.bool rng) in
      let good = Eval.run st_ok ins in
      let bad = Eval.run_with_flip st_flip ins ~flip_net:net in
      if good <> bad then incr observed
    done;
    injected := !injected + lanes;
    incr batches;
    continue_ :=
      !injected < config.vectors
      && not (ci_met config ~observed:!observed ~injected:!injected)
  done;
  (!observed, !injected, !batches)

let node_result_of nl ~net ~observed ~injected =
  let kind =
    match Netlist.driver nl net with
    | Some g -> g.kind
    | None -> assert false (* candidate nets are gate outputs *)
  in
  let ci_low, ci_high = Stats.wilson_interval ~successes:observed ~trials:injected () in
  {
    net;
    kind;
    observed;
    injected;
    logical_derating = float_of_int observed /. float_of_int injected;
    ci_low;
    ci_high;
  }

(* Packed simulation state reused across the nodes a worker domain
   processes (a full-netlist state per node would otherwise dominate
   small-circuit campaigns). *)
let packed_state_key : (Netlist.t * Eval_packed.state) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let packed_state nl =
  let slot = Domain.DLS.get packed_state_key in
  match !slot with
  | Some (nl', st) when nl' == nl -> st
  | _ ->
    let st = Eval_packed.create nl in
    slot := Some (nl, st);
    st

module Campaign = struct
  type nonrec config = config = {
    vectors : int;
    seed : int;
    sampling : Sampling.t;
    ci_target : float option;
    domains : int option;
  }

  let default = { vectors = 128; seed = 1; sampling = All; ci_target = None; domains = None }

  (* Per-node RNGs are split off sequentially, in node order, BEFORE
     any fan-out: every node's injection stream depends only on
     (seed, node position), never on the number of worker domains. *)
  let jobs_of config nl =
    let all = candidate_nets nl in
    let chosen = Sampling.select config.sampling all in
    let rng = Rng.create config.seed in
    let jobs = Array.of_list (List.map (fun net -> (net, Rng.split rng)) chosen) in
    let fraction =
      match all with
      | [] -> 1.
      | _ -> float_of_int (List.length chosen) /. float_of_int (List.length all)
    in
    (jobs, fraction)

  let finish config nl ~fraction nodes =
    Telemetry.add "fault.nodes" (List.length nodes);
    Telemetry.add "fault.injections"
      (List.fold_left (fun acc n -> acc + n.injected) 0 nodes);
    { netlist_name = Netlist.name nl; config; nodes; sampled_fraction = fraction }

  (* Span + convergence instant shared by the packed and scalar
     engines: one [fault.node] span per injection target, and a
     [fault.ci_converged] instant when the Wilson-interval target
     stopped the node before its vector cap. *)
  let traced_node config ~net inject =
    Trace.with_span "fault.node" ~attrs:[ ("net", Trace.Int net) ] @@ fun () ->
    let observed, injected, batches = inject () in
    Telemetry.add "fault.batches" batches;
    if config.ci_target <> None && ci_met config ~observed ~injected then
      Trace.instant "fault.ci_converged"
        ~attrs:
          [
            ("net", Trace.Int net);
            ("observed", Trace.Int observed);
            ("injected", Trace.Int injected);
          ];
    (observed, injected)

  let compute config nl =
    let jobs, fraction = jobs_of config nl in
    let nodes =
      Array.to_list
        (Pool.map_array ?domains:config.domains
           (fun (net, rng) ->
             let st = packed_state nl in
             let observed, injected =
               traced_node config ~net (fun () -> packed_node nl st rng config net)
             in
             node_result_of nl ~net ~observed ~injected)
           jobs)
    in
    finish config nl ~fraction nodes

  let run_scalar ?(config = default) nl =
    validate config;
    let jobs, fraction = jobs_of config nl in
    let st_ok = Eval.create nl and st_flip = Eval.create nl in
    let nodes =
      Array.to_list
        (Array.map
           (fun (net, rng) ->
             let observed, injected =
               traced_node config ~net (fun () ->
                   scalar_node nl st_ok st_flip rng config net)
             in
             node_result_of nl ~net ~observed ~injected)
           jobs)
    in
    finish config nl ~fraction nodes

  (* Reports are memoized on (netlist fingerprint, result-affecting
     config fields); [domains] only changes wall-clock, so it is
     excluded from the key.  A report costs about ten words per
     characterized node, counted once per insert (after a campaign
     that took far longer than the walk). *)
  let cache : (int64 * int * int * Sampling.t * float option, report) Memo.t =
    Memo.create ~name:"fault.cache" ~gauge:true ~max_entries:256 ~max_bytes:(16 lsl 20)
      ~cost:(fun _ r -> Sys.word_size / 8 * 10 * (List.length r.nodes + 4))
      ()

  let cache_clear () = Memo.clear cache

  let run ?(config = default) nl =
    validate config;
    let key =
      (Netlist.fingerprint nl, config.vectors, config.seed, config.sampling,
       config.ci_target)
    in
    Memo.find_or_add cache key (fun () ->
        Trace.with_span "fault.campaign"
          ~attrs:
            [
              ("netlist", Trace.Str (Netlist.name nl));
              ("vectors", Trace.Int config.vectors);
              ("seed", Trace.Int config.seed);
            ]
          (fun () -> compute config nl))
end

let run = Campaign.run

let node_logical_derating ?(config = Campaign.default) nl net =
  validate config;
  (* The node's stream comes straight off the seed (no split): the
     historical single-node semantics. *)
  let rng = Rng.create config.seed in
  let observed, injected, _ = packed_node nl (Eval_packed.create nl) rng config net in
  float_of_int observed /. float_of_int injected

let average_derating r =
  match r.nodes with
  | [] -> 0.
  | ns -> Stats.mean (List.map (fun n -> n.logical_derating) ns)
