let of_failure_rate ?(t = 1.) lambda =
  if lambda < 0. then invalid_arg "Reliability.of_failure_rate: negative failure rate";
  if t < 0. then invalid_arg "Reliability.of_failure_rate: negative time";
  exp (-.lambda *. t)

let failure_rate ?(t = 1.) r =
  if r <= 0. || r > 1. then invalid_arg "Reliability.failure_rate: r must be in (0,1]";
  if t <= 0. then invalid_arg "Reliability.failure_rate: time must be positive";
  -.log r /. t

let mttf lambda =
  if lambda <= 0. then invalid_arg "Reliability.mttf: failure rate must be positive";
  1. /. lambda

let serial rs = List.fold_left ( *. ) 1. rs

let parallel_any rs = 1. -. List.fold_left (fun acc r -> acc *. (1. -. r)) 1. rs

let binomial n k =
  if n < 0 || k < 0 then invalid_arg "Reliability.binomial: negative argument";
  if k > n then 0.
  else begin
    let k = Int.min k (n - k) in
    let acc = ref 1. in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let k_of_n ~k ~n r =
  if k < 1 || k > n then invalid_arg "Reliability.k_of_n: need 1 <= k <= n";
  if r < 0. || r > 1. then invalid_arg "Reliability.k_of_n: r must be in [0,1]";
  let total = ref 0. in
  for i = k to n do
    total :=
      !total
      +. (binomial n i *. (r ** float_of_int i) *. ((1. -. r) ** float_of_int (n - i)))
  done;
  !total

let nmr ~n r =
  if n < 1 || n mod 2 = 0 then invalid_arg "Reliability.nmr: n must be odd and >= 1";
  k_of_n ~k:((n + 1) / 2) ~n r

let tmr r = nmr ~n:3 r

let duplex_rollback r =
  if r < 0. || r > 1. then invalid_arg "Reliability.duplex_rollback: r must be in [0,1]";
  1. -. ((1. -. r) *. (1. -. r))

let voter_reliability = 0.99999

let nmr_with_voter ~n r = voter_reliability *. nmr ~n r
