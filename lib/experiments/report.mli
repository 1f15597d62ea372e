(** Machine-readable run reports ([--report json]).

    A report is a single JSON object (schema ["rchls.run_report/1"])
    capturing everything needed to identify and compare a run:

    - the command and its arguments,
    - FNV-1a fingerprints of the input DFG and characterized library
      (computed over their canonical text forms, so two runs agree on
      the fingerprint iff they agree on the input),
    - the result (a synthesized design, a sweep grid, an experiment's
      rendered text, or a structured failure),
    - a telemetry snapshot: counters, cumulative span times (each
      histogram's [sum_ns], under [timers_ns]) and histogram quantiles
      from {!Rchls_util.Telemetry}.

    Reports are built with the dependency-free {!Rchls_util.Json}
    printer; nothing here touches synthesis state. *)

module Json = Rchls_util.Json

val fingerprint_hex : string -> string
(** 64-bit FNV-1a of a string, rendered ["%016Lx"] — the fingerprint
    used for the [graph] and [library] report fields. *)

val graph_json : Rchls_dfg.Dfg.t -> Json.t
(** Name, node/edge counts and text-form fingerprint. *)

val library_json : Rchls_charlib.Library.t -> Json.t
(** Resource count and text-form fingerprint. *)

val design_json : Rchls_core.Design.t -> Json.t
(** [{"kind": "design", "status": "ok", "latency": .., "area": ..,
    "reliability": .., "instances": [{"resource": id, "count": n},
    ..]}] — delegated to {!Rchls_api.Response.design_result_to_json},
    so run reports and serve responses share one encoding. *)

val failure_json : Rchls_core.Engine.failure -> Json.t
(** [{"kind": "design", "status": "infeasible", "reason": .., ..}]
    with the bound diagnostics of the failure constructor (same
    delegation). *)

val sweep_json : Sweep.cell list -> Json.t
(** [{"kind": "sweep", "cells": [{"ld", "ad", "reliability", "area"},
    ..]}] with [null] for infeasible cells (same delegation). *)

val telemetry_json : unit -> Json.t
(** Snapshot of the current counters / span times / histograms. *)

val make :
  command:string ->
  ?args:(string * Json.t) list ->
  ?graph:Rchls_dfg.Dfg.t ->
  ?library:Rchls_charlib.Library.t ->
  result:Json.t ->
  unit ->
  Json.t
(** Assemble the full report object. *)

val validate : Json.t -> (unit, string) result
(** Structural check used by the test-suite: schema tag, command
    string, and a telemetry object with [counters] / [timers_ns] /
    [histograms] sub-objects. *)
