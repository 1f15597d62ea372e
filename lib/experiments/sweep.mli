(** Design-space sweep driver used by the benchmark harness and the
    CLI.

    Because the synthesis greedy is bound-path-dependent, a raw cell
    can occasionally come out below a cell with strictly tighter
    bounds, which is physically meaningless — any design feasible at
    (Ld', Ad') with Ld' <= Ld and Ad' <= Ad is feasible at (Ld, Ad).
    The driver therefore applies the {e monotone envelope} over the
    swept grid: each cell reports the best result among itself and all
    dominated grid cells (single dynamic-programming pass over the
    sorted grid).

    {!run} is {e frontier-guided} (see [Explore]): within each latency
    row only the cells starting a new certified decision-path plateau
    run synthesis; the rest are derived exactly from the synthesis
    layer's certified area-bound intervals.  Its output is
    cell-for-cell identical to the exhaustive {!run_reference}, which
    is kept as the differential oracle (the [explore-differential]
    fuzz property this module registers checks the equality on random
    graphs, libraries, grids and approaches).

    Evaluated grid cells are independent synthesis problems, so they
    are spread over a domain pool ([Rchls_util.Pool]); the synthesis
    engine is deterministic and results are returned in grid order, so
    parallel and sequential sweeps produce identical cells. *)

module Library = Rchls_charlib.Library

type approach = Explore.approach = Baseline  (** ref [3] *) | Ours | Combined

type cell = Explore.cell = {
  ld : int;
  ad : int;
  reliability : float option;  (** [None] when infeasible *)
  area : int option;  (** achieved area of the winning design *)
}

val run :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?domains:int ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  lds:int list ->
  ads:int list ->
  cell list
(** Sweep the full [lds] x [ads] product (row-major: all areas for the
    first latency first) with the monotone envelope applied, deriving
    certified-redundant cells instead of synthesizing them.
    [domains] caps the worker domains (default
    [Rchls_util.Pool.num_domains ()], which honours [RCHLS_DOMAINS]);
    [~domains:1] forces a sequential sweep.  [cache] substitutes a
    caller-owned evaluation cache shared by every cell (the serve
    daemon passes its long-lived per-(graph, library, scheduler)
    cache so repeated sweep traffic stays warm); results are
    independent of both. *)

val run_with_stats :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?domains:int ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  lds:int list ->
  ads:int list ->
  cell list * Explore.stats
(** {!run} plus the evaluated/derived cell counts of the pruned
    grid — the explorer's savings accounting. *)

val run_reference :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?domains:int ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  lds:int list ->
  ads:int list ->
  cell list
(** The historical exhaustive sweep — every cell synthesized — kept as
    the oracle {!run} is differentially verified against.  Identical
    output, more synthesis calls. *)

val raw_cell :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  float option * int option
(** One raw (un-enveloped) cell; re-exported from [Explore]. *)

(** An indexed view over a swept grid: O(log cells) lookups instead of
    {!cell_at}'s linear scan — the explorer, the CLI table renderer
    and the Table-4..9 emitters look cells up per (row, column). *)
module Grid : sig
  type t

  val of_cells : cell list -> t
  (** Index a sweep result.  Coordinates are expected unique (as
      produced by {!run} / {!run_reference}). *)

  val cells : t -> cell list
  (** Back to a list, sorted by (ld, ad). *)

  val size : t -> int

  val find : t -> ld:int -> ad:int -> cell option

  val find_exn : t -> ld:int -> ad:int -> cell
  (** Raises [Invalid_argument] naming the missing coordinates. *)
end

val cell_at : cell list -> ld:int -> ad:int -> cell option
(** The cell at exactly ([ld], [ad]), if that point was swept.
    Linear scan; prefer {!Grid} for repeated lookups. *)

val cell_at_exn : cell list -> ld:int -> ad:int -> cell
(** Like {!cell_at} but raises [Invalid_argument] naming the missing
    coordinates. *)

val improvement_pct : float -> float -> float
(** [improvement_pct base v] = (v - base) / base * 100. *)
