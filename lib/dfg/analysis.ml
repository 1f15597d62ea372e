type ranges = { asap : int array; alap : int array; latency : int }

let checked_delay delay n =
  let d = delay n in
  if d <= 0 then
    invalid_arg (Printf.sprintf "Analysis: node %s has non-positive delay %d" n.Dfg.name d);
  d

let asap g ~delay =
  let starts = Array.make (Dfg.node_count g) 0 in
  List.iter
    (fun (n : Dfg.node) ->
      let earliest =
        List.fold_left
          (fun acc p ->
            let pn = Dfg.node g p in
            Int.max acc (starts.(p) + checked_delay delay pn))
          0 (Dfg.preds g n.id)
      in
      starts.(n.id) <- earliest)
    (Dfg.topological g);
  starts

let asap_latency g ~delay =
  let starts = asap g ~delay in
  List.fold_left
    (fun acc (n : Dfg.node) -> Int.max acc (starts.(n.id) + checked_delay delay n))
    0 (Dfg.nodes g)

let alap g ~delay ~latency =
  let starts = Array.make (Dfg.node_count g) 0 in
  let rev = List.rev (Dfg.topological g) in
  List.iter
    (fun (n : Dfg.node) ->
      let d = checked_delay delay n in
      let latest =
        List.fold_left
          (fun acc s -> Int.min acc (starts.(s) - d))
          (latency - d) (Dfg.succs g n.id)
      in
      if latest < 0 then
        invalid_arg
          (Printf.sprintf "Analysis.alap: latency %d is infeasible (node %s)" latency
             n.Dfg.name);
      starts.(n.id) <- latest)
    rev;
  starts

let ranges g ~delay ~latency =
  let a = asap g ~delay in
  let l = alap g ~delay ~latency in
  Array.iteri
    (fun i s ->
      if s > l.(i) then
        invalid_arg
          (Printf.sprintf "Analysis.ranges: node %s has empty range" (Dfg.node g i).name))
    a;
  { asap = a; alap = l; latency }

let mobility r id = r.alap.(id) - r.asap.(id)

let critical_path g ~delay =
  (* Longest path by dynamic programming over the topological order. *)
  let n = Dfg.node_count g in
  let dist = Array.make n 0 in
  let next = Array.make n (-1) in
  List.iter
    (fun (nd : Dfg.node) ->
      let d = checked_delay delay nd in
      let best =
        List.fold_left
          (fun (bd, bn) s -> if dist.(s) > bd then (dist.(s), s) else (bd, bn))
          (0, -1) (Dfg.succs g nd.id)
      in
      dist.(nd.id) <- d + fst best;
      next.(nd.id) <- snd best)
    (List.rev (Dfg.topological g));
  let start =
    List.fold_left
      (fun acc (nd : Dfg.node) -> if dist.(nd.id) > dist.(acc) then nd.id else acc)
      (List.hd (Dfg.nodes g)).id (Dfg.nodes g)
  in
  let rec walk id acc = if id = -1 then List.rev acc else walk next.(id) (Dfg.node g id :: acc) in
  walk start []

let path_delay _g ~delay path =
  List.fold_left (fun acc n -> acc + checked_delay delay n) 0 path
