open Dmn_paths

(* For a candidate facility i, the best client set to grab is a prefix of
   clients sorted by distance. Cost-effectiveness of taking the k nearest
   uncovered clients: (opening_if_new + sum of their connection costs) /
   (their total demand). *)

let solve inst =
  let n = Flp.size inst in
  let covered = Array.make n false in
  Array.iteri (fun j d -> if d = 0.0 then covered.(j) <- true) inst.Flp.demand;
  let opened = Array.make n false in
  let result = ref [] in
  let sorted_clients = Metric.order inst.Flp.metric in
  let uncovered_left () =
    let rec go j = j < n && (if covered.(j) then go (j + 1) else true) in
    go 0
  in
  while uncovered_left () do
    let best = ref (infinity, -1, 0.0) in
    for i = 0 to n - 1 do
      if inst.Flp.opening.(i) < infinity then begin
        let fee = if opened.(i) then 0.0 else inst.Flp.opening.(i) in
        let acc_cost = ref fee and acc_dem = ref 0.0 in
        Array.iter
          (fun j ->
            if not covered.(j) then begin
              acc_cost := !acc_cost +. (inst.Flp.demand.(j) *. Metric.d inst.Flp.metric i j);
              acc_dem := !acc_dem +. inst.Flp.demand.(j);
              let eff = !acc_cost /. !acc_dem in
              let beff, _, _ = !best in
              (* Record the facility together with the distance radius
                 that achieved this effectiveness. *)
              if eff < beff then best := (eff, i, Metric.d inst.Flp.metric i j)
            end)
          sorted_clients.(i)
      end
    done;
    let _, i, radius = !best in
    if i < 0 then
      (* All remaining demand is zero-able only if every site is
         forbidden, which [create] cannot produce for finite instances. *)
      invalid_arg "Greedy.solve: no eligible facility";
    if not opened.(i) then begin
      opened.(i) <- true;
      result := i :: !result
    end;
    for j = 0 to n - 1 do
      if (not covered.(j)) && Metric.d inst.Flp.metric i j <= radius then covered.(j) <- true
    done
  done;
  (* Degenerate instances with all-zero demand still need one facility:
     open the cheapest. *)
  if !result = [] then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    result := [ !best ]
  end;
  List.rev !result
