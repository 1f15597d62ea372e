open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Schedule = Rchls_sched.Schedule
module Binding = Rchls_binding.Binding

type scheduler = [ `Density | `Density_reference | `Force_directed ]

type t = {
  graph : Dfg.t;
  library : Library.t;
  assignment : Resource.t array;
  schedule : Schedule.t;
  binding : Binding.t;
}

let check_assignment g assignment =
  let bad =
    Dfg.fold_nodes g ~init:None (fun acc (nd : Dfg.node) ->
        if acc = None && (assignment nd).Resource.op_class <> Op.resource_class nd.op
        then Some nd
        else acc)
  in
  match bad with
  | Some nd ->
    Error
      (Printf.sprintf "node %s (%s) assigned a %s-class version" nd.name
         (Op.name nd.op)
         (Resource.class_name (assignment nd).Resource.op_class))
  | None -> Ok ()

let first_schedule ?(scheduler = `Density) g ~delay ~latency =
  match scheduler with
  | `Density -> Rchls_sched.Density_sched.run g ~delay ~latency
  | `Density_reference -> Rchls_sched.Density_sched.run_reference g ~delay ~latency
  | `Force_directed -> Rchls_sched.Force_directed.run g ~delay ~latency

(* Within [latency] steps one instance of a version hosts at most
   [latency] busy cycles, so any binding needs ceil(busy_v / latency)
   instances of each version v. *)
let area_lower_bound g ~assignment ~latency =
  let busy = Hashtbl.create 8 in
  Dfg.iter_nodes g (fun (nd : Dfg.node) ->
      let r = assignment nd in
      let cur = Option.value (Hashtbl.find_opt busy r.Resource.id) ~default:(0, 0) in
      Hashtbl.replace busy r.Resource.id (fst cur + r.Resource.delay, r.Resource.area));
  Hashtbl.fold
    (fun _ (cycles, area) acc -> acc + (((cycles + latency - 1) / latency) * area))
    busy 0

let realize_scheduled ?(scheduler = `Density) g lib ~assignment ~latency ~schedule =
  match check_assignment g assignment with
  | Error e -> Error e
  | Ok () ->
    let delay (nd : Dfg.node) = (assignment nd).Resource.delay in
    (match schedule () with
    | Error e -> Error e
    | Ok schedule ->
      (* The area-minimizing packer sometimes beats the distribution
         scheduler on instance count; keep whichever binds smaller.
         Skip the packer when the first binding already reaches the
         occupancy lower bound, and bind the packed schedule only when
         its counted area wins. *)
      let bind s = Binding.bind s ~assignment in
      let binding = bind schedule in
      let lower_bound_area = area_lower_bound g ~assignment ~latency in
      let schedule, binding =
        if Binding.area binding <= lower_bound_area then (schedule, binding)
        else
          (* [`Density_reference] selects the whole old-equivalent
             realize path, packer included, so the benchmark's
             reference arm measures the historical cost end to end. *)
          let min_area =
            match scheduler with
            | `Density_reference -> Rchls_sched.Min_area.run_reference
            | `Density | `Force_directed -> Rchls_sched.Min_area.run
          in
          match
            min_area g ~delay
              ~group:(fun nd -> (assignment nd).Resource.id)
              ~group_area:(fun id -> (Library.find_exn lib id).Resource.area)
              ~latency
          with
          | Error _ -> (schedule, binding)
          | Ok packed ->
            if Binding.area_of_schedule packed ~assignment < Binding.area binding then
              (packed, bind packed)
            else (schedule, binding)
      in
      let arr = Array.init (Dfg.node_count g) (fun id -> assignment (Dfg.node g id)) in
      Ok { graph = g; library = lib; assignment = arr; schedule; binding })

let realize ?scheduler g lib ~assignment ~latency =
  realize_scheduled ?scheduler g lib ~assignment ~latency ~schedule:(fun () ->
      first_schedule ?scheduler g
        ~delay:(fun (nd : Dfg.node) -> (assignment nd).Resource.delay)
        ~latency)

let of_parts g lib ~assignment ~schedule ~binding =
  match check_assignment g assignment with
  | Error e -> Error e
  | Ok () ->
    let mismatch =
      Dfg.fold_nodes g ~init:None (fun acc (nd : Dfg.node) ->
          if acc <> None then acc
          else
            let r = assignment nd in
            if Schedule.delay_of schedule nd.id <> r.Resource.delay then
              Some
                (Printf.sprintf "node %s scheduled with delay %d but version %s takes %d"
                   nd.name (Schedule.delay_of schedule nd.id) r.Resource.id
                   r.Resource.delay)
            else
              let host = Binding.instance_of_node binding nd.id in
              if not (String.equal host.Binding.resource.Resource.id r.Resource.id)
              then
                Some
                  (Printf.sprintf "node %s assigned %s but hosted by a %s instance"
                     nd.name r.Resource.id host.Binding.resource.Resource.id)
              else None)
    in
    (match mismatch with
    | Some e -> Error ("Design.of_parts: " ^ e)
    | None ->
      let arr = Array.init (Dfg.node_count g) (fun id -> assignment (Dfg.node g id)) in
      Ok { graph = g; library = lib; assignment = arr; schedule; binding })

let realize_exn ?scheduler g lib ~assignment ~latency =
  match realize ?scheduler g lib ~assignment ~latency with
  | Ok t -> t
  | Error e -> failwith ("Design.realize: " ^ e)

let graph t = t.graph
let library t = t.library
let schedule t = t.schedule
let binding t = t.binding

let version_of t id =
  if id < 0 || id >= Array.length t.assignment then
    invalid_arg "Design.version_of: unknown node";
  t.assignment.(id)

let latency t = Schedule.latency t.schedule
let area t = Binding.area t.binding

let reliability t =
  Array.fold_left (fun acc (r : Resource.t) -> acc *. r.reliability) 1. t.assignment

let node_reliabilities t =
  List.map
    (fun (nd : Dfg.node) -> (nd, t.assignment.(nd.id).Resource.reliability))
    (Dfg.nodes t.graph)

let version_histogram t =
  (* Hashtbl tally instead of the historical O(n^2) assoc-list
     accumulation; ids are unique per version, so the final sort
     reproduces the exact historical output order. *)
  let tally = Hashtbl.create 8 in
  Array.iter
    (fun (r : Resource.t) ->
      Hashtbl.replace tally r.Resource.id
        (match Hashtbl.find_opt tally r.Resource.id with
        | Some (_, n) -> (r, n + 1)
        | None -> (r, 1)))
    t.assignment;
  List.sort
    (fun ((a : Resource.t), _) (b, _) -> compare a.Resource.id b.Resource.id)
    (Hashtbl.fold (fun _ rn acc -> rn :: acc) tally [])

let instance_histogram t = Binding.count_by_resource t.binding

let min_feasible_latency t =
  Analysis.asap_latency t.graph ~delay:(fun nd -> t.assignment.(nd.id).Resource.delay)

let pp_report ppf t =
  Format.fprintf ppf "design for %s@." (Dfg.name t.graph);
  Format.fprintf ppf "  latency: %d cycles, area: %d units, reliability: %.5f@."
    (latency t) (area t) (reliability t);
  Format.fprintf ppf "  instances:@.";
  List.iter
    (fun ((r : Resource.t), n) ->
      Format.fprintf ppf "    %dx %s (area %d, delay %d, R %.5f)@." n r.display r.area
        r.delay r.reliability)
    (instance_histogram t);
  Format.fprintf ppf "  schedule:@.";
  Schedule.pp ppf t.schedule

(* The record, the assignment, the schedule's record and two arrays,
   and the binding's node array, instance records and operation lists:
   about ten words per node when half the nodes share an instance. *)
let footprint_bytes t = Sys.word_size / 8 * ((10 * Array.length t.assignment) + 24)
