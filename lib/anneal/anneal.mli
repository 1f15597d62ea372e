(** Move-based global optimization: parallel-tempering simulated
    annealing over the joint version x schedule x binding space.

    The paper's flow (and {!Rchls_core.Engine}) is a one-directional
    greedy sacrifice heuristic: once a version has been downgraded it
    is never revisited, and the schedule/binding are whatever the
    density scheduler and left-edge binder produce for the final
    assignment.  This module searches the joint space directly with
    three move kinds over a {e legal} design state:

    - {b version}: move one operation to a different library version
      of its class (re-hosting it on a compatible instance, or a fresh
      one);
    - {b nudge}: move one operation's start step within the window its
      predecessors, successors and the latency bound allow;
    - {b rebind}: migrate an operation to another instance of its
      version (possibly emptying — and freeing — its old instance), or
      swap two operations between instances.

    Every reachable state satisfies the precedence, conflict-freedom
    and bound invariants by construction (illegal moves are rejected,
    area-bound violations are rejected outright), cost is
    [-ln reliability] (additive over operations, O(1) to update per
    version move), and acceptance is Metropolis at the chain's
    temperature.  [N] replica chains run at a geometric temperature
    ladder with periodic temperature exchange (parallel tempering),
    in turn on the calling domain; chains are seeded with
    deterministic splitmix RNGs derived from [(seed, chain index)]
    and exchange decisions from [(seed, -1)], so the result is a pure
    function of the inputs.

    Version moves that are provably area-infeasible under {e any}
    binding are skipped without evaluation using the PR8 occupancy
    lower bound [sum_v area_v * ceil(busy_v / ld)] (DESIGN.md §14/§15)
    — counted in the [anneal.pruned] telemetry.

    Before the first move, the seed state is checked once for being
    {e frozen}: no nudge target fits, no node has a rebind candidate,
    no swap fits, and every version move is illegal, pruned or over
    the area bound before it reaches the Metropolis draw.  A frozen
    state can never change (temperature exchanges swap temperatures
    only), so its chains are replayed instead of run: each makes the
    RNG draws a move would make, in the same order, and reads each
    outcome off per-node tables built by the check.  Statistics, the
    result and the RNG streams are those of running every move (DESIGN.md
    §15); a state that is not frozen pays only for the checks up to its
    first live move.

    The annealer is seeded from the greedy engine's result and keeps
    the incumbent best, so the annealed design is {e never worse than
    greedy by construction}; it replaces the greedy result only when
    strictly more reliable {e and} re-validated by
    [Rchls_check.Check.design_violations]. *)

module Dfg = Rchls_dfg.Dfg
module Library = Rchls_charlib.Library
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Rng = Rchls_util.Rng

type params = {
  seed : int;  (** RNG seed; same seed, same result (default 1) *)
  moves : int;  (** moves attempted per chain (default 2000) *)
  chains : int;  (** replica chains on the temperature ladder (default 4) *)
  exchange : int;
      (** moves between temperature-exchange attempts (default 50) *)
  t0 : float;  (** hottest ladder temperature (default 0.08) *)
  ratio : float;
      (** geometric ladder step in (0,1): chain [k] starts at
          [t0 * ratio^k] (default 0.5) *)
}

val default_params : params

val ladder : params -> float array
(** The initial temperature ladder, hottest first:
    [t0 * ratio^k] for [k = 0 .. chains-1]. *)

type stats = {
  attempted : int;  (** moves attempted, summed over chains *)
  accepted : int;  (** moves accepted *)
  pruned : int;
      (** version moves skipped by the certified occupancy lower bound *)
  exchanges : int;  (** accepted temperature swaps *)
  chain_count : int;
  improved : bool;  (** annealed strictly more reliable than greedy *)
}

val accept : rng:Rng.t -> temp:float -> delta:float -> bool
(** The Metropolis acceptance rule: always for [delta <= 0], otherwise
    with probability [exp (-delta /. temp)] (one [Rng.float rng 1.0]
    draw).  Exposed so the unit tests can drive it with an injected
    RNG. *)

val improve :
  ?params:params ->
  ld:int ->
  ad:int ->
  Design.t ->
  Design.t option * stats
(** Anneal from a feasible design (the greedy seed).  [Some d] iff the
    best state found is {e strictly} more reliable than the seed — by
    more than a relative [1e-9], so ulp-level rounding noise from
    multiplication order never counts — and the packaged design passes
    [Check.design_violations]; [None] leaves the caller's seed
    standing.  Deterministic in [(params.seed, inputs)]. *)

val synthesize :
  ?scheduler:Design.scheduler ->
  ?strategy:Engine.strategy ->
  ?cache:Engine.cache ->
  ?params:params ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Design.t * Design.t * stats, Engine.failure) result
(** The end-to-end entry ([rchls anneal], the [anneal] API job): run
    the greedy engine ({!Engine.synthesize}), then {!improve}; the
    annealed design replaces the greedy one only when it is strictly
    more reliable.  [Ok (greedy, annealed, stats)] — [annealed] is
    [greedy] itself when no strict improvement was found, so
    [reliability annealed >= reliability greedy] always.  Greedy
    failures pass through as [Error]. *)

val run_chain_for_test :
  ?seed:int -> ?temp:float -> ?moves:int -> ld:int -> ad:int -> Design.t -> Design.t list
(** Test surface: one sequential chain at a fixed temperature,
    packaging the state into a full [Design.t] after {e every}
    accepted move (raises [Failure] if any visited state fails to
    package) — the move-legality tests validate each with the
    independent checker. *)

val frozen_replay_check : ?seed:int -> ld:int -> ad:int -> Design.t -> (bool, string) result
(** Test surface for the frozen-state replay.  [Ok false] when the
    design's state is not proven frozen.  Otherwise one chain runs 400
    moves one by one at the hottest default temperature and one replays
    them, each from its own copy of the RNG seeded with [seed]
    (default 1): [Ok true] when the moving chain accepted nothing and
    the two agree on the moves attempted, the moves pruned and the
    final RNG state, [Error] naming the first disagreement. *)

val frozen_replay_case : aux:Rng.t -> Rchls_check.Gen.spec -> (bool, string) result
(** The [anneal-frozen-replay] fuzz property on one case:
    {!frozen_replay_check} on the greedy design of the blueprint's
    graph under a random library and knee bounds drawn from [aux]
    ([Ok false] also when greedy finds no design).  Exposed so a test
    can count the cases that reach a frozen state. *)

val optimum : ?max_nodes:int -> Dfg.t -> Library.t -> ld:int -> ad:int -> float option
(** The {e true} optimum reliability under the bounds, by exhaustive
    enumeration: every class-correct version assignment, every
    precedence-feasible start vector within the latency bound, exact
    minimum area per schedule from the left-edge theorem (instances
    per version = maximum interval overlap).  [None] = no feasible
    design.  Exponential — guarded to graphs of at most [max_nodes]
    (default 6) nodes ([Invalid_argument] beyond); this is the oracle
    the annealer is differentially tested against. *)
