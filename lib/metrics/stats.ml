(** Aggregate statistics over per-benchmark measurements (the summary tables
    of Section 5.2). *)

type summary = { average : float; median : float; minimum : float; maximum : float }

let summarize (xs : float list) : summary =
  match xs with
  | [] -> { average = 0.; median = 0.; minimum = 0.; maximum = 0. }
  | _ ->
    let n = List.length xs in
    let sorted = List.sort compare xs in
    let nth k = List.nth sorted k in
    let median =
      if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0
    in
    {
      average = List.fold_left ( +. ) 0.0 xs /. float_of_int n;
      median;
      minimum = nth 0;
      maximum = nth (n - 1);
    }
