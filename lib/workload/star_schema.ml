module V = Data.Value
module R = Data.Relation
module C = Engine.Column
module BA1 = Bigarray.Array1

let col name ty nullable = { Catalog.col_name = name; col_ty = ty; nullable }

let catalog () =
  let open Catalog in
  empty
  |> fun cat ->
  add_table cat
    {
      tbl_name = "PGroup";
      tbl_cols = [ col "pgid" V.Tint false; col "pgname" V.Tstr false ];
      primary_key = [ "pgid" ];
      unique_keys = [];
      foreign_keys = [];
    }
  |> fun cat ->
  add_table cat
    {
      tbl_name = "Loc";
      tbl_cols =
        [
          col "lid" V.Tint false;
          col "city" V.Tstr false;
          col "state" V.Tstr true;
          col "country" V.Tstr false;
        ];
      primary_key = [ "lid" ];
      unique_keys = [];
      foreign_keys = [];
    }
  |> fun cat ->
  add_table cat
    {
      tbl_name = "Cust";
      tbl_cols =
        [
          col "cid" V.Tint false;
          col "cname" V.Tstr false;
          col "segment" V.Tstr false;
        ];
      primary_key = [ "cid" ];
      unique_keys = [];
      foreign_keys = [];
    }
  |> fun cat ->
  add_table cat
    {
      tbl_name = "Acct";
      tbl_cols =
        [
          col "aid" V.Tint false;
          col "cid" V.Tint false;
          col "status" V.Tstr false;
        ];
      primary_key = [ "aid" ];
      unique_keys = [];
      foreign_keys =
        [ { fk_cols = [ "cid" ]; fk_ref_table = "Cust"; fk_ref_cols = [ "cid" ] } ];
    }
  |> fun cat ->
  add_table cat
    {
      tbl_name = "Trans";
      tbl_cols =
        [
          col "tid" V.Tint false;
          col "faid" V.Tint false;
          col "flid" V.Tint false;
          col "fpgid" V.Tint false;
          col "date" V.Tdate false;
          col "qty" V.Tint false;
          col "price" V.Tfloat false;
          col "disc" V.Tfloat false;
        ];
      primary_key = [ "tid" ];
      unique_keys = [];
      foreign_keys =
        [
          { fk_cols = [ "faid" ]; fk_ref_table = "Acct"; fk_ref_cols = [ "aid" ] };
          { fk_cols = [ "flid" ]; fk_ref_table = "Loc"; fk_ref_cols = [ "lid" ] };
          {
            fk_cols = [ "fpgid" ];
            fk_ref_table = "PGroup";
            fk_ref_cols = [ "pgid" ];
          };
        ];
    }

let ddl =
  "CREATE TABLE PGroup (pgid INT NOT NULL PRIMARY KEY, pgname VARCHAR NOT NULL);\n\
   CREATE TABLE Loc (lid INT NOT NULL PRIMARY KEY, city VARCHAR NOT NULL, \
   state VARCHAR, country VARCHAR NOT NULL);\n\
   CREATE TABLE Cust (cid INT NOT NULL PRIMARY KEY, cname VARCHAR NOT NULL, \
   segment VARCHAR NOT NULL);\n\
   CREATE TABLE Acct (aid INT NOT NULL PRIMARY KEY, cid INT NOT NULL, status \
   VARCHAR NOT NULL, FOREIGN KEY (cid) REFERENCES Cust (cid));\n\
   CREATE TABLE Trans (tid INT NOT NULL PRIMARY KEY, faid INT NOT NULL, flid \
   INT NOT NULL, fpgid INT NOT NULL, date DATE NOT NULL, qty INT NOT NULL, \
   price FLOAT NOT NULL, disc FLOAT NOT NULL, FOREIGN KEY (faid) REFERENCES \
   Acct (aid), FOREIGN KEY (flid) REFERENCES Loc (lid), FOREIGN KEY (fpgid) \
   REFERENCES PGroup (pgid));\n"

type params = {
  n_pgroups : int;
  n_locs : int;
  n_custs : int;
  accts_per_cust : int;
  years : int list;
  trans_per_acct_year : int;
  home_city_bias : float;
  seed : int;
}

let default_params =
  {
    n_pgroups = 20;
    n_locs = 100;
    n_custs = 40;
    accts_per_cust = 2;
    years = [ 1994; 1995; 1996 ];
    trans_per_acct_year = 300;
    home_city_bias = 0.98;
    seed = 42;
  }

let scaled n = { default_params with n_custs = default_params.n_custs * max 1 n }

let product_names =
  [|
    "TV"; "Audio"; "Laptop"; "Phone"; "Camera"; "Tablet"; "Printer"; "Monitor";
    "Router"; "Console"; "Fridge"; "Oven"; "Washer"; "Dryer"; "Vacuum";
    "Toaster"; "Blender"; "Mixer"; "Kettle"; "Fan";
  |]

let countries = [| "USA"; "USA"; "USA"; "Canada"; "France"; "Germany"; "Japan" |]

let us_states =
  [| "CA"; "NY"; "TX"; "WA"; "IL"; "FL"; "MA"; "OR"; "CO"; "GA" |]

(* [Trans] grows with scale, so its rows are never boxed: each column is
   written into a typed buffer that starts near the expected row count,
   doubles when full and is handed over as a view of its written rows. The dimension
   tables are small and are classified from boxed values. *)
let generate_batches p =
  let rng = Random.State.make [| p.seed |] in
  let rint n = Random.State.int rng n in
  let rfloat x = Random.State.float rng x in
  let dim names rows = C.of_relation (R.create names rows) in
  let pgroup_rows =
    List.init p.n_pgroups (fun i ->
        let base = product_names.(i mod Array.length product_names) in
        let name =
          if i < Array.length product_names then base
          else Printf.sprintf "%s-%d" base (i / Array.length product_names)
        in
        [| V.Int (i + 1); V.Str name |])
  in
  let loc_rows =
    List.init p.n_locs (fun i ->
        let country = countries.(rint (Array.length countries)) in
        let state =
          if country = "USA" then V.Str us_states.(rint (Array.length us_states))
          else V.Null
        in
        [| V.Int (i + 1); V.Str (Printf.sprintf "City%03d" (i + 1)); state;
           V.Str country |])
  in
  let cust_rows =
    List.init p.n_custs (fun i ->
        [| V.Int (i + 1); V.Str (Printf.sprintf "Cust%04d" (i + 1));
           V.Str (if rint 10 < 7 then "consumer" else "corporate") |])
  in
  let statuses = [| "gold"; "silver"; "basic" |] in
  let n_accts = p.n_custs * p.accts_per_cust in
  let acct_rows =
    List.init n_accts (fun i ->
        [| V.Int (i + 1); V.Int ((i mod p.n_custs) + 1);
           V.Str statuses.(rint 3) |])
  in
  (* tid faid flid fpgid date qty, then price disc *)
  let cap =
    ref
      (max 16
         (n_accts * List.length p.years * max 1 p.trans_per_acct_year * 17 / 16))
  in
  let ints = Array.init 6 (fun _ -> C.icreate !cap) in
  let floats = Array.init 2 (fun _ -> C.fcreate !cap) in
  let n = ref 0 in
  (* a [len]-row buffer holding the [!n] rows written so far *)
  let resize create a len =
    let b = create len in
    BA1.blit (BA1.sub a 0 !n) (BA1.sub b 0 !n);
    b
  in
  let push tid aid flid fpgid date qty price disc =
    if !n = !cap then begin
      cap := 2 * !cap;
      Array.iteri (fun k a -> ints.(k) <- resize C.icreate a !cap) ints;
      Array.iteri (fun k a -> floats.(k) <- resize C.fcreate a !cap) floats
    end;
    let i = !n in
    BA1.unsafe_set ints.(0) i tid;
    BA1.unsafe_set ints.(1) i aid;
    BA1.unsafe_set ints.(2) i flid;
    BA1.unsafe_set ints.(3) i fpgid;
    BA1.unsafe_set ints.(4) i date;
    BA1.unsafe_set ints.(5) i qty;
    BA1.unsafe_set floats.(0) i price;
    BA1.unsafe_set floats.(1) i disc;
    n := i + 1
  in
  let month_days = [| 31; 28; 31; 30; 31; 30; 31; 31; 30; 31; 30; 31 |] in
  for aid = 1 to n_accts do
    let home = 1 + rint p.n_locs in
    let alt = 1 + rint p.n_locs in
    List.iter
      (fun year ->
        let mean = p.trans_per_acct_year in
        let k = max 1 (mean / 2 + rint (max 1 mean)) in
        for _ = 1 to k do
          let m = 1 + rint 12 in
          let d = 1 + rint month_days.(m - 1) in
          let r = rfloat 1.0 in
          let flid =
            if r < p.home_city_bias then home
            else if r < p.home_city_bias +. ((1.0 -. p.home_city_bias) /. 2.) then
              alt
            else 1 + rint p.n_locs
          in
          let fpgid =
            (* 80/20 skew towards the first fifth of product groups *)
            if rint 10 < 8 then 1 + rint (max 1 (p.n_pgroups / 5))
            else 1 + rint p.n_pgroups
          in
          let qty = 1 + rint 5 in
          let price = Float.round ((5.0 +. rfloat 495.0) *. 100.) /. 100. in
          let disc =
            match rint 4 with
            | 0 -> 0.0
            | 1 -> 0.05
            | 2 -> 0.15
            | _ -> 0.25
          in
          let date = match V.date year m d with V.Date x -> x | _ -> assert false in
          push (!n + 1) aid flid fpgid date qty price disc
        done)
      p.years
  done;
  let col data = { C.data; nulls = None } in
  (* hand the buffers over as [!n]-row views: the untouched tail of each
     is never resident, so trimming it by copy would only cost time *)
  let ints = Array.map (fun a -> BA1.sub a 0 !n) ints in
  let floats = Array.map (fun a -> BA1.sub a 0 !n) floats in
  [
    ("PGroup", dim [ "pgid"; "pgname" ] pgroup_rows);
    ("Loc", dim [ "lid"; "city"; "state"; "country" ] loc_rows);
    ("Cust", dim [ "cid"; "cname"; "segment" ] cust_rows);
    ("Acct", dim [ "aid"; "cid"; "status" ] acct_rows);
    ( "Trans",
      {
        C.names =
          [| "tid"; "faid"; "flid"; "fpgid"; "date"; "qty"; "price"; "disc" |];
        cols =
          [|
            col (C.Ints ints.(0)); col (C.Ints ints.(1)); col (C.Ints ints.(2));
            col (C.Ints ints.(3)); col (C.Dates ints.(4)); col (C.Ints ints.(5));
            col (C.Floats floats.(0)); col (C.Floats floats.(1));
          |];
        nrows = !n;
      } );
  ]

let generate p =
  List.map (fun (name, b) -> (name, C.to_relation b)) (generate_batches p)
