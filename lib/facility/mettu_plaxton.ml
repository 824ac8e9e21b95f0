open Dmn_paths

(* r_v solves sum_j w_j * max(0, r - d_vj) = f_v: walk clients in the
   metric's distance order; between consecutive distances the left side
   is linear with slope = covered demand. Within a run of equal
   distances only the slope moves, and integer demands sum exactly in
   any order. *)
let radius inst v =
  let f = inst.Flp.opening.(v) in
  if f = 0.0 then 0.0
  else begin
    let order = (Metric.order inst.Flp.metric).(v) and row = Metric.row inst.Flp.metric v in
    let n = Array.length order in
    let i = ref 0 and paid = ref 0.0 and slope = ref 0.0 and last_d = ref 0.0 in
    let reached = ref false in
    while (not !reached) && !i < n do
      let j = order.(!i) in
      let d = Metric.row_get row j in
      let paid' = !paid +. (!slope *. (d -. !last_d)) in
      if paid' >= f && !slope > 0.0 then reached := true
      else begin
        paid := paid';
        slope := !slope +. inst.Flp.demand.(j);
        last_d := d;
        incr i
      end
    done;
    (* f is paid off past last_d, before the next client's distance *)
    if !slope > 0.0 then !last_d +. ((f -. !paid) /. !slope) else infinity
  end

let radii inst = Array.init (Flp.size inst) (fun v -> radius inst v)

let solve inst =
  let n = Flp.size inst in
  let r = radii inst in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (r.(a), a) (r.(b), b)) order;
  let chosen = ref [] in
  Array.iter
    (fun v ->
      if inst.Flp.opening.(v) < infinity && r.(v) < infinity then begin
        let blocked =
          List.exists (fun u -> Metric.d inst.Flp.metric u v <= 2.0 *. r.(v)) !chosen
        in
        if not blocked then chosen := v :: !chosen
      end)
    order;
  if !chosen = [] then begin
    (* zero-demand degenerate instance: cheapest site *)
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    chosen := [ !best ]
  end;
  List.rev !chosen
