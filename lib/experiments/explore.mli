(** Frontier-guided design-space exploration.

    The exhaustive sweep synthesizes every cell of the [lds x ads]
    product.  Most of that work is provably redundant: every decision
    the synthesis layers take that depends on the area bound is an
    integer comparison [a <= ad], so each synthesis call reports a
    {e certified interval} of area bounds that replay the identical
    decision path — and therefore return the identical result (see
    [Engine.synthesize]'s certificate contract; the redundancy layers
    carry the same contract).  This module turns that certificate into
    a pruned grid evaluation whose output is {e cell-for-cell
    identical} to the exhaustive sweep's: within each latency row,
    repeatedly synthesize the largest unfilled area bound and fill
    every grid column inside the returned interval, so one call per
    distinct decision-path plateau suffices.  Latency rows are
    independent (and fan out over the domain pool): the greedy is
    bound-path-dependent in the latency direction, so no latency
    certificate exists and none is assumed.

    The grid's {!approach} and {!cell} are the wire's own types
    ([Rchls_api.Request.approach], [Rchls_api.Response.cell]), so a
    request's approach and a sweep's cells cross the API unconverted.
    The monotone {!envelope} lives here; [Sweep] re-exports it with
    both types and builds its pruned {!Sweep.run}
    and exhaustive {!Sweep.run_reference} on this module.  {!frontier}
    reduces an enveloped grid to its 3-D (latency bound, area bound,
    reliability) Pareto frontier, and {!plan} picks a bound plane
    covering a graph x library's feasible range — together they back
    [rchls explore]. *)

module Library = Rchls_charlib.Library

type approach = Rchls_api.Request.approach = Ours | Baseline  (** ref [3] *) | Combined

type cell = Rchls_api.Response.cell = {
  ld : int;
  ad : int;
  reliability : float option;  (** [None] when infeasible *)
  area : int option;  (** achieved area of the winning design *)
}

type stats = {
  cells : int;  (** grid cells produced *)
  evaluated : int;  (** cells that ran a synthesis call *)
  derived : int;  (** cells filled from a certified interval *)
}

type point = {
  p_ld : int;  (** latency bound of the frontier cell *)
  p_ad : int;  (** area bound of the frontier cell *)
  p_reliability : float;
  p_area : int;  (** achieved area of the winning design *)
}
(** One frontier point.  [Rchls_api.Response.frontier_point] holds the
    same four values under [f_*] names; the two records stay apart
    while the benchmark harness reads both. *)

val raw_cell :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  float option * int option
(** One raw (un-enveloped) grid cell: the approach's synthesis result
    at exactly ([ld], [ad]), as (reliability, achieved area), [None]s
    when infeasible. *)

val raw_cell_certified :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?cache:Rchls_core.Engine.cache ->
  approach ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (float option * int option) * (int * int)
(** {!raw_cell} plus the synthesis layer's certified area-bound
    interval [(lo, hi)]: for every [ad'] with [lo <= ad' <= hi] the
    raw cell at ([ld], [ad']) is identical.  Always contains [ad]
    itself (for positive bounds). *)

val envelope :
  n_ads:int ->
  ((int * int) * (float option * int option)) list ->
  cell list
(** The monotone envelope over a row-major raw grid (all area bounds
    of the first latency bound first; [n_ads] columns per row): each
    cell reports the best result among itself and all dominated grid
    cells, resolving ties toward the first dominated cell in row-major
    order.  Exactly [Sweep]'s historical semantics. *)

val pruned_raw :
  ?domains:int ->
  evaluate:
    (ld:int -> ad:int -> (float option * int option) * (int * int)) ->
  lds:int list ->
  ads:int list ->
  unit ->
  ((int * int) * (float option * int option)) list * stats
(** The frontier-guided raw grid over sorted, deduplicated bounds:
    calls [evaluate] (which must return the raw cell and its certified
    interval, e.g. {!raw_cell_certified}) for as few cells as the
    certificates allow and derives the rest.  Returns the row-major
    raw grid — cell-for-cell identical to evaluating every cell — and
    the evaluated/derived counts.  Rows fan out over the domain pool
    ([domains] as in [Rchls_util.Pool.map]); the output is identical
    for every domain count. *)

val frontier : cell list -> point list
(** The 3-D Pareto frontier of an enveloped grid: feasible cells not
    dominated by any other feasible cell, where (ld, ad, r) dominates
    (ld', ad', r') when [ld <= ld'], [ad <= ad'], [r >= r'] and at
    least one is strict.  Sorted by (latency bound, area bound);
    deterministic. *)

val plan :
  ?rows:int ->
  ?cols:int ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  int list * int list
(** An automatic bound plane [(lds, ads)] for a graph x library:
    latency bounds span the fastest-version ASAP latency to the
    slowest-version ASAP latency, area bounds span one shared smallest
    instance per class to every operation on its own largest version
    with TMR headroom (3x).  At most [rows] (default 6) x [cols]
    (default 16) evenly spaced integer bounds, endpoints included.
    The ad axis is deliberately denser than the ld axis: derived
    cells make extra area columns nearly free for the explorer while
    they cost the exhaustive reference a full synthesis each. *)
