type interval = { key : int; start : int; stop : int }

let assign intervals =
  List.iter
    (fun iv ->
      if iv.start >= iv.stop then
        invalid_arg
          (Printf.sprintf "Left_edge.assign: empty interval [%d,%d) for key %d" iv.start
             iv.stop iv.key))
    intervals;
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.start b.start in
        if c <> 0 then c else compare a.key b.key)
      intervals
  in
  (* tracks: (index, reversed intervals, end of last interval) *)
  let rec place tracks iv =
    match tracks with
    | [] -> None
    | (idx, ivs, last_stop) :: rest ->
      if last_stop <= iv.start then Some ((idx, iv :: ivs, iv.stop) :: rest)
      else
        Option.map (fun rest' -> (idx, ivs, last_stop) :: rest') (place rest iv)
  in
  let tracks =
    List.fold_left
      (fun tracks iv ->
        match place tracks iv with
        | Some tracks' -> tracks'
        | None -> tracks @ [ (List.length tracks, [ iv ], iv.stop) ])
      [] sorted
  in
  List.map (fun (idx, ivs, _) -> (idx, List.rev ivs)) tracks

let track_count intervals = List.length (assign intervals)

let max_overlap intervals =
  match intervals with
  | [] -> 0
  | _ ->
    let events =
      List.concat_map (fun iv -> [ (iv.start, 1); (iv.stop, -1) ]) intervals
    in
    let sorted =
      (* At equal coordinates process closings first: half-open
         intervals [a,b) and [b,c) do not overlap. *)
      List.sort
        (fun (xa, da) (xb, db) ->
          let c = compare xa xb in
          if c <> 0 then c else compare da db)
        events
    in
    let _, best =
      List.fold_left
        (fun (cur, best) (_, d) ->
          let cur = cur + d in
          (cur, Int.max best cur))
        (0, 0) sorted
    in
    best
