(* The three workloads. Each builds its cluster and client endpoints
   (the timed setup), then starts its load and readers. Sizes are fixed
   per workload, so a seed fixes every simulated result. *)

open Ll_sim
open Lazylog
open Ll_workload
open Round

type spec = {
  name : string;
  warmup : Engine.time;
  window : Engine.time;
  setup_reps : int;  (* extra setup-only builds for the setup_s median *)
  slices : int;  (* host-CPU slices per window *)
  build : seed:int -> env;
  drive : seed:int -> ctx -> unit;
  full_waterfall : bool;
      (* every record is read, so every waterfall must be complete *)
}

(* The modeled capacity the open-loop rates are set against: the
   sequencing replicas' per-record service rate, or the shards' device
   bandwidth, whichever is lower. *)
let expected_capacity (cfg : Config.t) ~size =
  let seq = 1e9 /. (float_of_int cfg.Config.seq_base_ns +. (cfg.Config.seq_per_byte_ns *. float_of_int size)) in
  let bw = match cfg.Config.shard_disk with Config.Sata -> 140e6 | Config.Nvme -> 285e6 in
  Float.min seq (float_of_int cfg.Config.nshards *. bw /. float_of_int size)

let arrival_seed seed = (seed * 7919) + 17

(* paper-tail: figure 9's regime. Erwin-m on the default cluster, 4 KB
   Poisson appends over 8 handles, and one reader of len:1 reads that
   reads each position as soon as that many appends are acknowledged. *)
let paper_tail =
  let size = 4096 and handles = 8 and rate = 30_000. in
  {
    name = "paper-tail";
    warmup = Engine.ms 5;
    window = Engine.ms 1500;
    setup_reps = 100;
    slices = 40;
    full_waterfall = true;
    build =
      (fun ~seed:_ ->
        let c = Erwin_m.create () in
        let hs = Array.init (handles + 1) (fun _ -> Erwin_m.client c) in
        make_env c hs ~log_of_handle:(Array.make (handles + 1) 0) ~nlogs:1 ~size);
    drive =
      (fun ~seed ctx ->
        Arrival.open_loop ~seed:(arrival_seed seed) ~rate ~until:ctx.t_end
          (fun i -> ignore (append ctx (i mod handles) : bool));
        let reader = ctx.env.handles.(handles) in
        ctx.readers <- 1;
        Engine.spawn ~name:"perfbench.reader" (fun () ->
            let cursor = ref 0 in
            let rec loop () =
              if !cursor < ctx.acked_log.(0) then begin
                read ctx reader ~log:0 ~from:!cursor ~len:1;
                incr cursor;
                loop ()
              end
              else if Engine.now () < ctx.t_end || ctx.outstanding > 0 then begin
                Engine.sleep (Engine.us 5);
                loop ()
              end
              else ctx.readers <- 0
            in
            loop ()));
  }

(* open-100k: 10^5 Erwin-m producer endpoints, 128 B Poisson appends at
   0.7x the modeled capacity. One sampling reader re-reads the newest
   acknowledged position whenever its previous read returns, so tail
   reads are measured under the heaviest host load without a full scan. *)
let open_100k =
  let size = 128 and producers = 100_000 in
  let rate = 0.7 *. expected_capacity Config.default ~size in
  {
    name = "open-100k";
    warmup = Engine.ms 5;
    window = Engine.ms 200;
    setup_reps = 2;
    slices = 40;
    full_waterfall = false;
    build =
      (fun ~seed:_ ->
        let c = Erwin_m.create () in
        let hs = Array.init (producers + 1) (fun _ -> Erwin_m.client c) in
        make_env c hs ~log_of_handle:(Array.make (producers + 1) 0) ~nlogs:1 ~size);
    drive =
      (fun ~seed ctx ->
        Arrival.open_loop ~seed:(arrival_seed seed) ~rate ~until:ctx.t_end
          (fun i -> ignore (append ctx (i mod producers) : bool));
        let reader = ctx.env.handles.(producers) in
        ctx.readers <- 1;
        Engine.spawn ~name:"perfbench.sampler" (fun () ->
            let last = ref (-1) in
            let rec loop () =
              if Engine.now () >= ctx.t_end then ctx.readers <- 0
              else begin
                let newest = ctx.acked_log.(0) - 1 in
                if newest > !last then begin
                  read ctx reader ~log:0 ~from:newest ~len:1;
                  last := newest
                end
                else Engine.sleep (Engine.us 5);
                loop ()
              end
            in
            loop ()));
  }

(* st-tenants-closed: Erwin-st on five NVMe shards x 2 replicas with the
   multi-log fabric, fair ingress and 5 us-linger group commit. 128
   closed-loop clients each append 128 B records back to back to one of
   [tenants] logs drawn from a Zipf-0.99 law; one scanner reads the
   hottest tenant (log 0) in 64-record chunks, a fixed distance behind
   its stable frontier. *)
let st_closed ~name ~tenants =
  let size = 128 and clients = 128 in
  let chunk = 64 and behind = 256 in
  (* Systematic sampling of the Zipf law: client [c] takes the tenant at
     CDF quantile [(c + u) / clients], one offset [u] drawn from the seed.
     Every tenant gets its Zipf share of clients to within one, so log 0
     carries the same load under every seed. *)
  let tenant_of seed =
    let weight l = 1. /. (float_of_int (l + 1) ** 0.99) in
    let total = ref 0. in
    for l = 0 to tenants - 1 do
      total := !total +. weight l
    done;
    let u = Random.State.float (Random.State.make [| arrival_seed seed |]) 1.0 in
    let l = ref 0 and cdf = ref (weight 0 /. !total) in
    Array.init clients (fun c ->
        let x = (float_of_int c +. u) /. float_of_int clients in
        while !l < tenants - 1 && !cdf <= x do
          incr l;
          cdf := !cdf +. (weight !l /. !total)
        done;
        !l)
  in
  let cfg =
    {
      (Config.with_shards ~backups:1 (Config.scaled_cluster Config.default) 5) with
      Config.multi_log = true;
      fair_ingress = true;
      append_batching = true;
      linger = Engine.us 5;
    }
  in
  {
    name;
    warmup = Engine.ms 10;
    window = Engine.ms 400;
    setup_reps = 50;
    slices = 200;
    full_waterfall = false;
    build =
      (fun ~seed ->
        let c = Erwin_st.create ~cfg () in
        let pins = tenant_of seed in
        let log_of_handle = Array.append pins [| 0 |] in
        let hs = Array.map (fun log -> Erwin_st.client ~log c) log_of_handle in
        make_env c hs ~log_of_handle ~nlogs:tenants ~size);
    drive =
      (fun ~seed:_ ctx ->
        Arrival.closed_loop ~clients ~until:ctx.t_end (fun ~client _ ->
            ignore (append ctx client : bool));
        let reader = ctx.env.handles.(clients) in
        ctx.readers <- 1;
        Engine.spawn ~name:"perfbench.scanner" (fun () ->
            let cursor = ref 0 in
            let rec loop () =
              if Engine.now () >= ctx.t_end then ctx.readers <- 0
              else begin
                if stable_count ctx.env.cluster 0 >= !cursor + chunk + behind
                then begin
                  read ctx reader ~log:0 ~from:!cursor ~len:chunk;
                  cursor := !cursor + chunk
                end
                else Engine.sleep (Engine.us 5);
                loop ()
              end
            in
            loop ()));
  }

let st_tenants_closed = st_closed ~name:"st-tenants-closed" ~tenants:100

(* The same cluster and clients on one log: the capacity the 100-log
   workload is measured against (not part of the declared benchmark). *)
let st_onelog_closed = st_closed ~name:"st-onelog-closed" ~tenants:1

let all = [ paper_tail; open_100k; st_tenants_closed ]

let find name =
  List.find_opt (fun w -> w.name = name) (st_onelog_closed :: all)
