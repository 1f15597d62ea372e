open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Schedule = Rchls_sched.Schedule

type instance = { resource : Resource.t; index : int; ops : Dfg.node_id list }

type t = { instances : instance list; of_node : instance array }

let bind sched ~assignment =
  Rchls_util.Trace.with_span "bind.left_edge" @@ fun () ->
  Rchls_util.Telemetry.incr "bind.runs";
  let g = Schedule.graph sched in
  List.iter
    (fun (nd : Dfg.node) ->
      let r = assignment nd in
      if Schedule.delay_of sched nd.id <> r.Resource.delay then
        invalid_arg
          (Printf.sprintf
             "Binding.bind: node %s scheduled with delay %d but version %s has delay %d"
             nd.name (Schedule.delay_of sched nd.id) r.Resource.id r.Resource.delay))
    (Dfg.nodes g);
  (* Group nodes by version, left-edge each group. *)
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (nd : Dfg.node) ->
      let r = assignment nd in
      if not (Hashtbl.mem groups r.Resource.id) then begin
        Hashtbl.add groups r.Resource.id (r, ref []);
        order := r.Resource.id :: !order
      end;
      let _, l = Hashtbl.find groups r.Resource.id in
      l := nd.id :: !l)
    (Dfg.nodes g);
  let instances =
    List.concat_map
      (fun rid ->
        let r, node_ids = Hashtbl.find groups rid in
        let intervals =
          List.map
            (fun id ->
              {
                Left_edge.key = id;
                start = Schedule.start sched id;
                stop = Schedule.finish sched id;
              })
            !node_ids
        in
        List.map
          (fun (index, ivs) ->
            { resource = r; index; ops = List.map (fun iv -> iv.Left_edge.key) ivs })
          (Left_edge.assign intervals))
      (List.rev !order)
  in
  let of_node = Array.make (Dfg.node_count g) (List.hd instances) in
  List.iter (fun inst -> List.iter (fun id -> of_node.(id) <- inst) inst.ops) instances;
  { instances; of_node }

(* Left-edge is optimal on interval graphs: it opens exactly as many
   instances of a version as the most operations of that version
   running at one step.  So the area [bind] would reach is a count of
   step occupancies, with no intervals sorted and no instance built. *)
let area_of_schedule sched ~assignment =
  let g = Schedule.graph sched in
  let n = Dfg.node_count g in
  let codes = Hashtbl.create 8 in
  let areas = ref [] in
  let code =
    Array.init n (fun id ->
        let r = assignment (Dfg.node g id) in
        match Hashtbl.find_opt codes r.Resource.id with
        | Some c -> c
        | None ->
          let c = Hashtbl.length codes in
          Hashtbl.add codes r.Resource.id c;
          areas := r.Resource.area :: !areas;
          c)
  in
  let areas = Array.of_list (List.rev !areas) in
  let row = Schedule.latency sched in
  let busy = Array.make (Array.length areas * row) 0 in
  let peak = Array.make (Array.length areas) 0 in
  for id = 0 to n - 1 do
    let base = code.(id) * row in
    for s = Schedule.start sched id to Schedule.finish sched id - 1 do
      let b = busy.(base + s) + 1 in
      busy.(base + s) <- b;
      if b > peak.(code.(id)) then peak.(code.(id)) <- b
    done
  done;
  let area = ref 0 in
  Array.iteri (fun c a -> area := !area + (a * peak.(c))) areas;
  !area

let of_instances ~node_count instances =
  if node_count <= 0 then Error "Binding.of_instances: empty graph"
  else if instances = [] then Error "Binding.of_instances: no instances"
  else begin
    let hosted = Array.make node_count 0 in
    let bad = ref None in
    List.iter
      (fun inst ->
        List.iter
          (fun id ->
            if id < 0 || id >= node_count then
              (if !bad = None then
                 bad := Some (Printf.sprintf "unknown node id %d" id))
            else hosted.(id) <- hosted.(id) + 1)
          inst.ops)
      instances;
    Array.iteri
      (fun id n ->
        if n <> 1 && !bad = None then
          bad := Some (Printf.sprintf "node %d hosted by %d instances" id n))
      hosted;
    match !bad with
    | Some msg -> Error ("Binding.of_instances: " ^ msg)
    | None ->
      let of_node = Array.make node_count (List.hd instances) in
      List.iter
        (fun inst -> List.iter (fun id -> of_node.(id) <- inst) inst.ops)
        instances;
      Ok { instances; of_node }
  end

let instances t = t.instances

let instance_of_node t id =
  if id < 0 || id >= Array.length t.of_node then raise Not_found;
  t.of_node.(id)

let sharing_partners t id =
  let inst = instance_of_node t id in
  List.filter (fun x -> x <> id) inst.ops

let area t =
  List.fold_left (fun acc i -> acc + i.resource.Resource.area) 0 t.instances

let instance_count t = List.length t.instances

let count_by_resource t =
  let acc = ref [] in
  List.iter
    (fun i ->
      match List.assoc_opt i.resource !acc with
      | Some n -> acc := (i.resource, n + 1) :: List.remove_assoc i.resource !acc
      | None -> acc := (i.resource, 1) :: !acc)
    t.instances;
  List.sort (fun (a, _) (b, _) -> compare a.Resource.id b.Resource.id) !acc

let pp ppf t =
  List.iter
    (fun i ->
      Format.fprintf ppf "%s#%d: %s@." i.resource.Resource.id i.index
        (String.concat "," (List.map string_of_int i.ops)))
    t.instances
