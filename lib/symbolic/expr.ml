type mono = (string * int) list

type term = { coeff : float; mono : mono; s_pow : int }

type t = term list

(* the order polymorphic [compare] gives these types: names by bytes,
   then powers, and a shorter prefix first *)
let rec compare_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (na, pa) :: ra, (nb, pb) :: rb -> (
    match String.compare na nb with
    | 0 -> ( match Int.compare pa pb with 0 -> compare_mono ra rb | c -> c)
    | c -> c)

let compare_term_key t1 t2 =
  match Int.compare t1.s_pow t2.s_pow with
  | 0 -> compare_mono t1.mono t2.mono
  | c -> c

(* merge equal keys left to right, drop zeros, keep sorted *)
let of_terms terms =
  let sorted = List.sort compare_term_key terms in
  let[@tail_mod_cons] rec merge = function
    | [] -> []
    | [ t ] -> if t.coeff = 0.0 then [] else [ t ]
    | t1 :: t2 :: rest ->
      if compare_term_key t1 t2 = 0 then
        merge ({ t1 with coeff = t1.coeff +. t2.coeff } :: rest)
      else if t1.coeff = 0.0 then merge (t2 :: rest)
      else t1 :: merge (t2 :: rest)
  in
  merge sorted

let zero = []
let one = [ { coeff = 1.0; mono = []; s_pow = 0 } ]
let const c = if c = 0.0 then [] else [ { coeff = c; mono = []; s_pow = 0 } ]
let sym name = [ { coeff = 1.0; mono = [ (name, 1) ]; s_pow = 0 } ]
let s = [ { coeff = 1.0; mono = []; s_pow = 1 } ]

let s_times k p = List.map (fun t -> { t with s_pow = t.s_pow + k }) p

(* Both inputs are sorted with unique keys, so one merge does what sorting
   [a @ b] did: on a tie the stable sort put [a]'s term first. *)
let[@tail_mod_cons] rec add a b =
  match (a, b) with
  | [], p | p, [] -> p
  | ta :: ra, tb :: rb ->
    let c = compare_term_key ta tb in
    if c < 0 then ta :: add ra b
    else if c > 0 then tb :: add a rb
    else
      let sum = ta.coeff +. tb.coeff in
      if sum = 0.0 then add ra rb else { ta with coeff = sum } :: add ra rb

let neg a = List.map (fun t -> { t with coeff = -.t.coeff }) a

let sub a b = add a (neg b)

let mul_mono (a : mono) (b : mono) : mono =
  let rec go a b =
    match (a, b) with
    | [], m | m, [] -> m
    | (na, pa) :: ra, (nb, pb) :: rb ->
      let c = String.compare na nb in
      if c = 0 then (na, pa + pb) :: go ra rb
      else if c < 0 then (na, pa) :: go ra b
      else (nb, pb) :: go a rb
  in
  go a b

(* the products are summed in generation order, so they keep the sort *)
let mul a b =
  let products =
    List.concat_map
      (fun ta ->
        List.map
          (fun tb ->
            { coeff = ta.coeff *. tb.coeff;
              mono = mul_mono ta.mono tb.mono;
              s_pow = ta.s_pow + tb.s_pow })
          b)
      a
  in
  of_terms products

let scale c a =
  if c = 0.0 then []
  else
    List.filter_map
      (fun t ->
        let coeff = c *. t.coeff in
        if coeff = 0.0 then None else Some { t with coeff })
      a

let filteri = List.filteri

let is_zero = function [] -> true | _ :: _ -> false

let term_count = List.length

let degree_s p = List.fold_left (fun acc t -> max acc t.s_pow) 0 p

(* terms are sorted by s-power first, so each group is one run *)
let by_s_power p =
  let rec groups = function
    | [] -> []
    | t :: _ as p ->
      let rec run acc = function
        | u :: rest when u.s_pow = t.s_pow -> run ({ u with s_pow = 0 } :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let group, rest = run [] p in
      (t.s_pow, group) :: groups rest
  in
  groups p

let eval_mono value t =
  List.fold_left (fun acc (name, pow) -> acc *. (value name ** float_of_int pow)) t.coeff t.mono

type numeric = { values : Float.Array.t; starts : int array }

let numeric value p =
  let values = Float.Array.create (List.length p) in
  let starts = Array.make (degree_s p + 2) 0 in
  List.iteri
    (fun i t ->
      Float.Array.set values i (eval_mono value t);
      starts.(t.s_pow + 1) <- i + 1)
    p;
  (* a power no term has starts where the one below it stops *)
  for k = 1 to Array.length starts - 1 do
    starts.(k) <- max starts.(k) starts.(k - 1)
  done;
  { values; starts }

(* [Complex.add acc (Complex.mul {re = v; im = 0} s^k)] per term, in term
   order, with s^k built by the same repeated [Complex.mul] from one: the
   sums are those of a term-by-term fold, which Horner would regroup *)
let eval_numeric n sval =
  let re = ref 0.0 and im = ref 0.0 in
  let p = ref Complex.one in
  for k = 0 to Array.length n.starts - 2 do
    if k > 0 then p := Complex.mul !p sval;
    let { Complex.re = sr; im = si } = !p in
    for i = n.starts.(k) to n.starts.(k + 1) - 1 do
      let v = Float.Array.get n.values i in
      re := !re +. ((v *. sr) -. (0.0 *. si));
      im := !im +. ((v *. si) +. (0.0 *. sr))
    done
  done;
  { Complex.re = !re; im = !im }

let eval value p sval = eval_numeric (numeric value p) sval

let eval_s_coeffs value p =
  let deg = degree_s p in
  let coeffs = Array.make (deg + 1) 0.0 in
  List.iter (fun t -> coeffs.(t.s_pow) <- coeffs.(t.s_pow) +. eval_mono value t) p;
  coeffs

let symbols p =
  let tbl = Hashtbl.create 16 in
  List.iter (fun t -> List.iter (fun (name, _) -> Hashtbl.replace tbl name ()) t.mono) p;
  Hashtbl.fold (fun name () acc -> name :: acc) tbl [] |> List.sort compare

module I = Mixsyn_util.Interval

(* Interval analogue of [eval_mono]: same fold order, each concrete
   operation replaced by its outward-rounded interval counterpart, so the
   result encloses [eval_mono] for every symbol valuation drawn from the
   supplied ranges. *)
let eval_mono_interval value t =
  List.fold_left
    (fun acc (name, pow) -> I.mul acc (I.powi (value name) pow))
    (I.point t.coeff) t.mono

let eval_s_coeffs_interval value p =
  let deg = degree_s p in
  let coeffs = Array.make (deg + 1) (I.point 0.0) in
  List.iter
    (fun t -> coeffs.(t.s_pow) <- I.add coeffs.(t.s_pow) (eval_mono_interval value t))
    p;
  coeffs

let pp_mono ppf (m : mono) =
  List.iter
    (fun (name, pow) ->
      if pow = 1 then Format.fprintf ppf "*%s" name else Format.fprintf ppf "*%s^%d" name pow)
    m

let pp ppf p =
  match p with
  | [] -> Format.pp_print_string ppf "0"
  | terms ->
    List.iteri
      (fun i t ->
        if i > 0 then Format.fprintf ppf " + ";
        Format.fprintf ppf "%g" t.coeff;
        pp_mono ppf t.mono;
        if t.s_pow = 1 then Format.fprintf ppf "*s"
        else if t.s_pow > 1 then Format.fprintf ppf "*s^%d" t.s_pow)
      terms
