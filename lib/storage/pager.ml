type backend = Disk.backend_kind = Mem | File of string option

type t = { disk : Disk.t; pool : Buffer_pool.t; stats : Stats.t }

let create ?(page_size = 4096) ?(frames = 256) ?backend () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size ?backend stats in
  { disk; pool = Buffer_pool.create disk ~frames; stats }

let page_size t = Disk.page_size t.disk

let close t =
  Buffer_pool.flush t.pool;
  Disk.close t.disk

let stats t = t.stats
let disk t = t.disk
let create_file t = Disk.create_file t.disk
let create_output_file t = Disk.create_output_file t.disk

let delete_file t id =
  (* Frames of the deleted file must not be written back later; frames of
     every other file stay resident (dropping them all skewed the I/O
     counts of whatever ran next). *)
  Buffer_pool.drop_file t.pool ~file:id;
  Disk.delete_file t.disk id

let page_count t id = Disk.page_count t.disk id
let with_page_read t ~file ~page fn = Buffer_pool.with_page_read t.pool ~file ~page fn
let with_page_write t ~file ~page fn = Buffer_pool.with_page_write t.pool ~file ~page fn

let with_pin_arg t ~file ~page ~dirty fn arg =
  Buffer_pool.with_pin_arg t.pool ~file ~page ~dirty fn arg
let mark_dirty t ~file ~page = Buffer_pool.mark_dirty t.pool ~file ~page
let new_page t ~file = Buffer_pool.new_page t.pool ~file
let flush t = Buffer_pool.flush t.pool
let invalidate t ~file ~page = Buffer_pool.invalidate t.pool ~file ~page

let reset_stats t = Stats.reset t.stats

let run_cold t f =
  Buffer_pool.clear t.pool;
  Stats.reset t.stats;
  let result = f () in
  Buffer_pool.flush t.pool;
  result

let total_pages t = Disk.total_pages t.disk
