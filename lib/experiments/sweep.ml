module Library = Rchls_charlib.Library
module Pool = Rchls_util.Pool
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace
module Rng = Rchls_util.Rng

type approach = Explore.approach = Baseline | Ours | Combined

type cell = Explore.cell = {
  ld : int;
  ad : int;
  reliability : float option;
  area : int option;
}

let raw_cell = Explore.raw_cell
let envelope = Explore.envelope

let sorted_bounds ~lds ~ads =
  (List.sort_uniq compare lds, List.sort_uniq compare ads)

let approach_name = Explore.approach_name

let sweep_span g approach ~n_cells f =
  Trace.with_span "sweep.run"
    ~attrs:
      [
        ("graph", Trace.Str (Rchls_dfg.Dfg.name g));
        ("approach", Trace.Str (approach_name approach));
        ("cells", Trace.Int n_cells);
      ]
    f

let cell_span ~ld ~ad f =
  Trace.with_span "sweep.cell"
    ~attrs:[ ("ld", Trace.Int ld); ("ad", Trace.Int ad) ]
    (fun () ->
      Telemetry.incr "sweep.cells";
      f ())

(* The frontier-guided sweep (see [Explore]): only cells whose result
   is not already certified by an earlier call in their latency row
   run synthesis; the rest are derived from the certified area-bound
   intervals.  Output is cell-for-cell identical to
   {!run_reference} — enforced by the [explore-differential] fuzz
   property registered below.  [sweep.cells]/"sweep.cell" spans count
   only the cells that actually synthesize. *)
let run_with_stats ?scheduler ?domains ?cache approach g lib ~lds ~ads =
  let lds, ads = sorted_bounds ~lds ~ads in
  let cache =
    match cache with Some c -> c | None -> Rchls_core.Engine.create_cache ()
  in
  let evaluate ~ld ~ad =
    cell_span ~ld ~ad (fun () ->
        Explore.raw_cell_certified ?scheduler ~cache approach g lib ~ld ~ad)
  in
  let raw, stats =
    sweep_span g approach ~n_cells:(List.length lds * List.length ads)
      (fun () -> Explore.pruned_raw ?domains ~evaluate ~lds ~ads ())
  in
  (envelope ~n_ads:(List.length ads) raw, stats)

let run ?scheduler ?domains ?cache approach g lib ~lds ~ads =
  fst (run_with_stats ?scheduler ?domains ?cache approach g lib ~lds ~ads)

(* The historical exhaustive sweep, kept verbatim as the oracle the
   pruned path is differentially checked against. *)
let run_reference ?scheduler ?domains ?cache approach g lib ~lds ~ads =
  let lds, ads = sorted_bounds ~lds ~ads in
  let grid = List.concat_map (fun ld -> List.map (fun ad -> (ld, ad)) ads) lds in
  let cache =
    match cache with Some c -> c | None -> Rchls_core.Engine.create_cache ()
  in
  let raw =
    sweep_span g approach ~n_cells:(List.length grid) (fun () ->
        Pool.map ?domains
          (fun (ld, ad) ->
            cell_span ~ld ~ad (fun () ->
                ((ld, ad), raw_cell ?scheduler ~cache approach g lib ~ld ~ad)))
          grid)
  in
  envelope ~n_ads:(List.length ads) raw

(* --- indexed grid view ---------------------------------------------- *)

module Grid = struct
  type t = cell array (* sorted by (ld, ad) *)

  let key (c : cell) = (c.ld, c.ad)

  let of_cells cells =
    let a = Array.of_list cells in
    Array.sort (fun a b -> compare (key a) (key b)) a;
    a

  let cells t = Array.to_list t
  let size = Array.length

  let find t ~ld ~ad =
    let rec go lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let c = compare (key t.(mid)) (ld, ad) in
        if c = 0 then Some t.(mid) else if c < 0 then go (mid + 1) hi else go lo mid
      end
    in
    go 0 (Array.length t)

  let find_exn t ~ld ~ad =
    match find t ~ld ~ad with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Sweep.Grid.find_exn: no cell at (ld=%d, ad=%d) in the swept grid" ld
           ad)
end

let cell_at cells ~ld ~ad = List.find_opt (fun c -> c.ld = ld && c.ad = ad) cells

let cell_at_exn cells ~ld ~ad =
  match cell_at cells ~ld ~ad with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Sweep.cell_at_exn: no cell at (ld=%d, ad=%d) in the swept grid"
         ld ad)

let improvement_pct base v = (v -. base) /. base *. 100.

(* --- pruned-vs-reference differential fuzz property ----------------- *)

(* Registered into the fuzz harness at module-initialization time
   (this library sits above [Rchls_check], so it cannot be a
   built-in).  Random graph x random library x random bound grid x
   random approach: the pruned sweep must equal the exhaustive
   reference cell-for-cell, infeasible cells included. *)
let () =
  Rchls_check.Fuzz.register_property ~name:"explore-differential"
    (fun ~aux spec ->
      let g = Rchls_check.Gen.graph_of_spec spec in
      let lib = Rchls_check.Gen.random_library aux in
      let fastest (nd : Rchls_dfg.Dfg.node) =
        List.fold_left
          (fun acc (v : Rchls_charlib.Resource.t) -> min acc v.delay)
          max_int
          (Library.versions lib (Rchls_dfg.Op.resource_class nd.op))
      in
      let asap = Rchls_dfg.Analysis.asap_latency g ~delay:fastest in
      let max_area =
        Rchls_dfg.Dfg.fold_nodes g ~init:0 (fun acc nd ->
            acc
            + List.fold_left
                (fun m (v : Rchls_charlib.Resource.t) -> max m v.area)
                0
                (Library.versions lib (Rchls_dfg.Op.resource_class nd.op)))
      in
      (* Bounds straddle the feasibility knee: latency bounds may dip
         one below the fastest ASAP (whole-row infeasible), area
         bounds range from starvation to TMR saturation. *)
      let lds =
        List.init (1 + Rng.int aux 3) (fun _ ->
            max 1 (asap - 1 + Rng.int aux 6))
      in
      let ads =
        List.init (1 + Rng.int aux 4) (fun _ -> 1 + Rng.int aux (3 * max_area))
      in
      let approach =
        match Rng.int aux 3 with 0 -> Baseline | 1 -> Ours | _ -> Combined
      in
      let pruned = run ~domains:1 approach g lib ~lds ~ads in
      let reference = run_reference ~domains:1 approach g lib ~lds ~ads in
      let mismatch =
        List.find_opt
          (fun (p, r) -> p <> r)
          (List.combine pruned reference)
      in
      match mismatch with
      | None -> Ok ()
      | Some (p, r) ->
        let pp (c : cell) =
          Printf.sprintf "(ld=%d ad=%d r=%s area=%s)" c.ld c.ad
            (match c.reliability with
            | None -> "-"
            | Some x -> Printf.sprintf "%.17g" x)
            (match c.area with None -> "-" | Some a -> string_of_int a)
        in
        Error
          (Printf.sprintf
             "explore: pruned %s <> reference %s under approach %s (lds=[%s] ads=[%s])"
             (pp p) (pp r) (approach_name approach)
             (String.concat ";" (List.map string_of_int (List.sort_uniq compare lds)))
             (String.concat ";" (List.map string_of_int (List.sort_uniq compare ads)))))
