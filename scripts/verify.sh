#!/usr/bin/env bash
# Tier-1 verification plus the doc and formatting gates, so doc rot and
# formatting drift fail fast. Run from anywhere inside the repository.
#
#   scripts/verify.sh          # build + tests + clippy (debug and release) + docs + fmt
#   scripts/verify.sh --quick  # skip the full workspace test pass, clippy and
#                              # the benchmark's --quick run
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

step() { printf '\n==> %s\n' "$*"; }

# `named_tests ARGS...` runs `cargo test ARGS`, whose last argument is a
# test-name filter, once the filter is seen to select a test: cargo passes
# a filter that matches nothing with "0 passed", so a renamed or deleted
# test would leave its gate running nothing.
named_tests() {
    local list count
    list=$(cargo test "$@" -- --list)
    count=$(grep -c ': test$' <<<"$list" || true)
    if [[ "$count" -eq 0 ]]; then
        echo "verify: 'cargo test $*' selects no test; fix its name filter" >&2
        exit 1
    fi
    cargo test "$@"
}

step "every public item has a caller (scripts/unused_pub.sh)"
# A `pub` item of the product code that no other file names is decided:
# it gets its caller, narrows to private / pub(crate) / #[cfg(test)], is
# deleted, or is listed in scripts/unused_pub.allow with its reason.
scripts/unused_pub.sh

step "doc references resolve (every *.md a comment names exists)"
# A comment under crates/, src/, examples/ or tests/ that cites a document
# names it relative to the repository root or to its own directory; a
# document the repository does not have sends the reader nowhere.
dangling=$({ grep -rnE --include='*.rs' '//.*[A-Za-z0-9_-]\.md\b' crates src examples tests || true; } \
    | while IFS=: read -r file line text; do
        for doc in $(grep -oE '//.*' <<<"$text" | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b'); do
            [[ -f "$doc" || -f "$(dirname "$file")/$doc" ]] || echo "$file:$line: $doc"
        done
    done)
if [[ -n "$dangling" ]]; then
    printf '%s\n' "$dangling"
    echo "verify: comments cite documents that do not exist (lines above)" >&2
    exit 1
fi

step "one dispatch path (no thread::scope / thread::spawn in product code outside the pool)"
# Every parallel region goes through agsfl-exec's persistent pool; only
# pool.rs itself may open threads, the bench crate included (its
# `pool_dispatch` row times the pool alone). Comment lines are exempt.
# pool_lifecycle cannot see a spawn that is joined within its round, so
# this is the gate for those.
if grep -rnE 'thread::(scope|spawn)' crates/*/src \
    | grep -vE '^crates/exec/src/pool\.rs:' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "verify: product code opens its own threads (lines above); use agsfl_exec::Executor" >&2
    exit 1
fi

step "one snapshot codec (agsfl_wire::snapshot is the only byte encoder/decoder of persisted state)"
# The second codec (online's StateWriter/StateReader) and the buffer-reusing
# save path (save_state_into / SnapshotWriter::with_buf) were deleted; a
# second writer definition anywhere is a copy growing back.
if grep -rnE 'StateWriter|StateReader|save_state_into|with_buf' crates/*/src; then
    echo "verify: a deleted snapshot path is back (lines above); use agsfl_wire::snapshot" >&2
    exit 1
fi
if [[ "$(grep -rn 'struct SnapshotWriter' crates/*/src | wc -l)" -ne 1 ]]; then
    echo "verify: expected exactly one 'struct SnapshotWriter' under crates/*/src" >&2
    exit 1
fi

step "one ordering path (the comparator is the spec, not a code path)"
# agsfl_sparse::topk takes every magnitude order on packed integer keys
# (sampled select with a histogram cut, radix rank);
# `compare_magnitude_then_index` survives as the executable spec for
# reference.rs and tests, and is not a total order once a NaN shows up — a
# comparison sort handed it may panic. Comment lines are exempt, and so is
# everything from a file's `#[cfg(test)]` on.
if for f in $(grep -rlE 'magnitude_then_index' crates/*/src | grep -vE '^crates/sparse/src/reference\.rs$'); do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
done | grep -E '(sort_unstable_by|sort_by|select_nth_unstable_by)\(.*magnitude_then_index' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "verify: product code sorts through the float comparator (lines above); use agsfl_sparse::topk" >&2
    exit 1
fi

step "the server reads the uploads once (each delivered upload summed at admission, one selection from the sums, no second selection, clone or comparison sort in the probe)"
# The round's admission consumer adds each delivered upload into the
# server's sums (SelectionScratch::accumulate, in client_pass), and the
# round selects once from those sums, in Simulation::run_round_recorded
# (Sparsifier::select_accumulated; select_into would accumulate a second
# time); the probe stage restricts that result (Sparsifier::probe_aggregate)
# into reused weight buffers and prices prefixes through topk::sort_by_index.
# Product code only: product_lines skips every #[cfg(test)] item (the
# fixture's probe_by_second_selection is the old recipe kept as the spec)
# and comment lines (scripts/product_lines.sh). engine_product is the round
# engine: simulation.rs, wire_state.rs and one module per stage under
# stages/.
source scripts/product_lines.sh
engine_product() {
    for f in crates/fl/src/simulation.rs crates/fl/src/wire_state.rs crates/fl/src/stages/*.rs; do
        product_lines "$f"
    done
}
# `fn_body FILE NAME` prints the product lines of fn NAME in FILE.
fn_body() {
    product_lines "$1" | awk -F: -v name="$2" '
        $0 ~ ("fn " name "[<(]") { on = 1; indent = match($3, /[^ ]/) }
        on { print }
        on && $3 ~ /^ *}$/ && match($3, /[^ ]/) == indent { exit }'
}
if [[ "$(engine_product | grep -c 'select_accumulated(')" -ne 1 ]] \
    || [[ "$(fn_body crates/fl/src/simulation.rs run_round_recorded | grep -c 'select_accumulated(')" -ne 1 ]] \
    || [[ "$(engine_product | grep -c 'select_into(')" -ne 0 ]]; then
    echo "verify: the round engine must select exactly once, with select_accumulated in Simulation::run_round_recorded, and never call select_into:" >&2
    engine_product | grep -E 'select_accumulated\(|select_into\(' >&2
    exit 1
fi
# Exactly one accumulate call in the fl crate's product code, and it is in
# the body of client_pass's admission closure (`let admit = …`), the
# consumer that swaps each delivered upload in.
fl_product() {
    for f in $(find crates/fl/src -name '*.rs' | sort); do product_lines "$f"; done
}
admit_body() {
    fn_body crates/fl/src/stages/client_pass.rs client_pass \
        | awk -F: '/let admit = / { on = 1 } on { print } on && $3 ~ /^    };$/ { exit }'
}
if [[ "$(fl_product | grep -c '\.accumulate(')" -ne 1 ]] \
    || [[ "$(admit_body | grep -c '\.accumulate(')" -ne 1 ]]; then
    echo "verify: crates/fl/src must add each delivered upload into the sums exactly once, in client_pass's admission consumer:" >&2
    fl_product | grep '\.accumulate(' >&2
    exit 1
fi
if engine_product | grep -E 'sort_unstable_by_key|params\.clone\(\)'; then
    echo "verify: the round path sorts by comparison or clones the weights (lines above)" >&2
    exit 1
fi
# The probe's encoded_len_prefix — the one user of the staging copy, and
# with the client selecting in index order the one caller of
# topk::sort_by_index on the round path — must not fall back to a
# comparison sort.
if awk '/pub fn encoded_len_prefix/ { on = 1 } on { print FNR ":" $0 } on && /^    }/ { exit }' \
    crates/wire/src/scratch.rs | grep -F '.sort'; then
    echo "verify: WireScratch::encoded_len_prefix comparison-sorts (lines above); use topk::sort_by_index" >&2
    exit 1
fi

step "a stage is a module, and no module of the round engine's crate grows past 800 lines"
# Every stage of Algorithm 1's round lives in its own module under
# crates/fl/src/stages/ and names what it borrows; a file over 800 lines is
# the one-file engine growing back.
for f in $(find crates/fl/src -name '*.rs'); do
    if [[ "$(wc -l < "$f")" -gt 800 ]]; then
        echo "verify: $f has $(wc -l < "$f") lines (limit 800); split it" >&2
        exit 1
    fi
done

step "one selection contract (uploads summed as they arrive; each sparsifier picks J into a bitset; the aggregate is one gather; no sweep, no reset list)"
# Every selection picks J into SelectionScratch's bitset and ends in its
# gather, which reads J's accumulated sums in index order; each client
# derives its own resets from J (ResidualAccumulator::reset_selected). The
# old second sweep (aggregate_marked), a J sorted by the index radix
# (sort_indices), a stamp epoch, a flat reset list with per-upload end
# offsets (reset_ends), a reset Vec per client, FUB's membership set or the
# touched list is a deleted copy growing back; reference.rs keeps the
# seed's per-client lists as the spec. FedAvg's average has one striped
# path too: the executor runs a single stripe as a plain loop, so a size
# threshold is a second branch.
if grep -rnE 'vec!\[Vec::new\(\);|result_from_selected|aggregate_selected_into|begin_members|is_member|\.touched|aggregate_marked|sort_indices\(|\bepoch\b|reset_ends' crates/sparse/src \
    | grep -vE '^crates/sparse/src/reference\.rs:'; then
    echo "verify: a deleted selection path is back (lines above); accumulate, pick J into the bitset, then gather" >&2
    exit 1
fi
if grep -n 'STRIPE_MIN_DIM' crates/fl/src/fedavg.rs; then
    echo "verify: crates/fl/src/fedavg.rs has an averaging threshold again (lines above); stripe every run" >&2
    exit 1
fi

step "a wired upload is finished where it is produced (ordered once per side, decoded once on the pool, admission only decides its fate)"
# A byte-priced client selects in index order (topk::top_k_entries_indexed_into),
# encodes that into its own WireScratch, and decodes that frame exactly once
# (Client::decode_upload): the decoded list — ranked from the decoder's
# visitor when the plan ranks — is the upload the server aggregates, and the
# entries the codec changed are the lossy tier's errors. Admission swaps the
# member's entry buffer into the aggregation input, so the round thread never
# decodes or ranks an upload: the round engine calls decode_frame_with
# once, in stages/broadcast.rs apply_broadcast (the downlink). An index sort
# in client.rs is the discarded client rank coming back. The lossy tier's
# residual reset merges its sorted indices against the error list; the
# per-index binary search lives on in agsfl_sparse::reference as the spec.
# Product code only (no #[cfg(test)] item); comment lines are exempt.
if grep -rnE '\b(deliver_upload|encode_upload_lossy_into|decode_scratch)\b' crates/*/src; then
    echo "verify: a deleted second decode path is back (lines above); the producer finishes the upload" >&2
    exit 1
fi
if engine_product | grep -F 'rank_index_ordered_keys_into'; then
    echo "verify: the round engine ranks an upload on the round thread (lines above)" >&2
    exit 1
fi
if [[ "$(engine_product | grep -c 'decode_frame_with(')" -ne 1 ]] \
    || [[ "$(fn_body crates/fl/src/stages/broadcast.rs apply_broadcast | grep -c 'decode_frame_with(')" -eq 0 ]]; then
    echo "verify: the round engine must call decode_frame_with exactly once, in stages/broadcast.rs apply_broadcast:" >&2
    engine_product | grep 'decode_frame_with(' >&2
    exit 1
fi
if [[ "$(product_lines crates/fl/src/client.rs | grep -c 'decode_frame_with(')" -ne 1 ]]; then
    echo "verify: crates/fl/src/client.rs must call decode_frame_with exactly once (Client::decode_upload):" >&2
    product_lines crates/fl/src/client.rs | grep 'decode_frame_with(' >&2
    exit 1
fi
if product_lines crates/fl/src/client.rs | grep -F 'sort_by_index'; then
    echo "verify: crates/fl/src/client.rs sorts an upload by index (lines above); select it in index order" >&2
    exit 1
fi
if product_lines crates/sparse/src/accumulator.rs | grep -F 'binary_search'; then
    echo "verify: crates/sparse/src/accumulator.rs searches the error list per index (lines above); merge it" >&2
    exit 1
fi

step "one codec value (CodecSpec builds a Codec; the sorted-index gap stream is read once)"
# A codec is the plain value CodecSpec::build_seeded returns; each frame
# format is one arm of the length, writer and decoder matches in
# crates/wire/src/codec.rs. A codec trait, an impl of it or a trait object
# is the per-format type layer growing back. Delta-varint, qlinear8, f16 and
# sign-norm read their indices through one validated gap reader
# (codec::read_gaps); a second `checked_add(delta)` outside reference.rs
# (the spec's own decoder) is a copied gap loop. Product code only (no
# #[cfg(test)] item); comment lines are exempt.
if for f in $(find crates/*/src -name '*.rs'); do product_lines "$f"; done \
    | grep -E 'trait Codec\b|impl Codec for|dyn Codec\b'; then
    echo "verify: a codec trait or trait object is back (lines above); build a Codec from its CodecSpec" >&2
    exit 1
fi
if [[ "$(for f in $(find crates/wire/src -name '*.rs' ! -name reference.rs); do product_lines "$f"; done \
    | grep -c 'checked_add(delta)')" -ne 1 ]]; then
    echo "verify: crates/wire/src must read sorted-index gaps in exactly one place (codec::read_gaps):" >&2
    for f in $(find crates/wire/src -name '*.rs' ! -name reference.rs); do product_lines "$f"; done \
        | grep 'checked_add(delta)' >&2
    exit 1
fi

step "an upload is index-ordered wherever it lives (entries in index order, the ranking a key view, one owner per buffer)"
# Every TopKOwn build is topk::top_k_entries_indexed_into, wired or not;
# the producer ranks the index-ordered keys into the member's ranked view
# (Client::rank_upload), which FAB's scan and the probe's prefix
# pricing read. A ranked top_k_entries_into call or a wired-only arm in the
# product code of crates/fl/src is the rank-ordered upload coming back, and
# a probe that prices entries[..k'] prices an index-ordered prefix as if it
# were the top k'. Product code only (no #[cfg(test)] item); comment lines
# are exempt.
if for f in $(find crates/fl/src -name '*.rs'); do product_lines "$f"; done \
    | grep -E 'top_k_entries_into\(|TopKOwn if wired'; then
    echo "verify: crates/fl/src builds a rank-ordered upload (lines above); select in index order and rank the keys" >&2
    exit 1
fi
if fn_body crates/fl/src/wire_state.rs probe_round_time | grep -F 'entries[..'; then
    echo "verify: WireState::probe_round_time prices an entries prefix (lines above); price the ranked view's" >&2
    exit 1
fi

step "one client state value (the population keeps one ClientState per client id; hydration swaps it whole)"
# A client's persistent state — stream, residual, sampler epoch, estimator
# bookkeeping — is one ClientState, and ClientPopulation is a map from
# client id to it: hydration and dehydration are a lookup and one swap.
# Field-by-field swap helpers through a row index, or a column of vectors
# in population.rs, are the struct-of-arrays layout growing back. Product
# code only (no #[cfg(test)] item); comment lines are exempt.
if for f in $(find crates/*/src -name '*.rs'); do product_lines "$f"; done \
    | grep -E 'swap_persistent|swap_storage|swap_state|swap_row|cached_row'; then
    echo "verify: a column-wise client state swap is back (lines above); swap the whole ClientState" >&2
    exit 1
fi
if product_lines crates/fl/src/population.rs | grep -F 'Vec<Vec<'; then
    echo "verify: crates/fl/src/population.rs holds a column of vectors (lines above); store one ClientState per client id" >&2
    exit 1
fi

step "one evaluation path (one sweep, one eager/lazy decision, no parallelism threshold, no batched-forward channel)"
# agsfl_ml::metrics::global_evaluation is the only executor sweep and
# stages/evaluate.rs sweep the only place that asks whether the shards are
# resident; the executor splits any region of more than one item on more
# than one thread, so there is no threshold for a caller to override; the
# row-parallel CNN forward and the process-global statics it reported into
# had no caller. Any of these names is a deleted path growing back (the
# benchmark-package build below is the guard for the other direction:
# nothing benchmark/ names was removed).
if grep -rnE 'with_min_items|DEFAULT_MIN_ITEMS|forward_batched|BatchedForward|batched_forward|accuracy_parallel|global_loss_parallel|global_accuracy_parallel|global_train_accuracy' crates/*/src; then
    echo "verify: a deleted evaluation/parallelism path is back (lines above)" >&2
    exit 1
fi
if grep -rnE 'ml::stats|crate::stats' crates/ml crates/fl crates/core; then
    echo "verify: the agsfl_ml::stats channel is back (lines above); it never recorded anything" >&2
    exit 1
fi
if [[ "$(engine_product | grep -c 'as_dataset()')" -ne 1 ]] \
    || [[ "$(fn_body crates/fl/src/stages/evaluate.rs sweep | grep -c 'as_dataset()')" -eq 0 ]]; then
    echo "verify: the round engine must ask as_dataset() exactly once, in stages/evaluate.rs sweep:" >&2
    engine_product | grep 'as_dataset()' >&2
    exit 1
fi

step "a cohort member fetches only the rows it trains on (no slot shard cache, no whole-shard fill, no allocating batch)"
# A client draws its batch indices (MinibatchSampler::next_indices_into),
# then asks its ShardSource for just those rows; an offline member with a
# stale probe sample fetches that one row. The slot's shard cache, the
# whole-shard fill and the allocating next_batch are deleted paths growing
# back. Whole shards are for the lazy evaluation sweep alone: the round
# engine calls materialize_into exactly once, in stages/evaluate.rs sweep.
# Comment lines are exempt.
if grep -rnE '\b(shard_of|shard_mut|next_batch)\b' crates/*/src \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "verify: a deleted whole-shard round path is back (lines above); fetch rows with materialize_rows_into" >&2
    exit 1
fi
if [[ "$(engine_product | grep -c 'materialize_into')" -ne 1 ]] \
    || [[ "$(fn_body crates/fl/src/stages/evaluate.rs sweep | grep -c 'materialize_into')" -eq 0 ]]; then
    echo "verify: the round engine must call materialize_into exactly once, in stages/evaluate.rs sweep:" >&2
    engine_product | grep 'materialize_into' >&2
    exit 1
fi

step "scratch is grow-only (no workspace releases capacity)"
# Every reusable workspace (SelectionScratch, WireScratch, CnnScratch,
# the member and upload buffers) is sized to the largest geometry seen and
# never shrinks: a release under Algorithm 3's moving k and the probe's
# batch-1 forwards is re-allocated and zero-filled the round after. The
# decaying-demand policy was deleted; this keeps a copy from growing back.
if grep -rnE 'note_demand|shrink_to_recent_demand|shrink_capacity_to|SHRINK_FLOOR|\.shrink_to\(' crates/*/src; then
    echo "verify: a scratch buffer releases capacity (lines above); workspaces are grow-only" >&2
    exit 1
fi

step "unsafe stays in two modules (the pool's trampoline and the tensor width dispatch)"
# agsfl_exec::pool erases a lifetime behind a monomorphized trampoline;
# agsfl_tensor::dispatch calls #[target_feature] kernel instantiations after
# feature detection and wraps core::arch loads/stores/mul/add. Every other
# crate root forbids unsafe_code; this catches an allow growing elsewhere.
# Comment lines are exempt.
if grep -rnE '\bunsafe\b' crates/*/src \
    | grep -vE '^(crates/exec/src/pool\.rs|crates/tensor/src/dispatch\.rs):' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "verify: unsafe outside crates/exec/src/pool.rs and crates/tensor/src/dispatch.rs (lines above)" >&2
    exit 1
fi

# Every unsafe block in the dispatch module states what it relies on: a
# `// SAFETY:` comment at most six lines above it, after the previous
# block (comment lines, attributes and the match arm's head sit between).
if ! awk '
    /\/\/ SAFETY:/ { safety = FNR }
    /^[[:space:]]*\/\// { next }
    /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ {
        if (safety <= last || FNR - safety > 6) { print FILENAME ":" FNR ":" $0; bad = 1 }
        last = FNR
    }
    END { exit bad }' crates/tensor/src/dispatch.rs; then
    echo "verify: an unsafe block in crates/tensor/src/dispatch.rs has no // SAFETY: comment (lines above)" >&2
    exit 1
fi

step "one convolution forward and one backward (the fused kernels; no im2col, no dpre)"
# SimpleCnn's forward calls agsfl_tensor's fused kernel straight from the
# images, and its backward the fused backward kernel straight from the
# images, the pooled gradient and the ReLU mask: no model file lowers a
# batch to columns, keeps the gradient at the pre-activations, or sums its
# rows for the bias, and no ReLU/pool loop over stored pre-activations is
# left in the model.
cnn=crates/ml/src/model/cnn.rs
lowered=$(for file in crates/ml/src/model/*.rs; do product_lines "$file"; done \
    | grep -E 'im2col|sum_rows_interleaved|\bdpre\b|\bcols\b[^(]|\bcols$' || true)
if [[ -n "$lowered" ]]; then
    printf '%s\n' "$lowered" >&2
    echo "verify: the im2col lowering is back in crates/ml/src/model (lines above); the backward is ConvLayer::relu_pool_backward" >&2
    exit 1
fi
if product_lines "$cnn" | grep -E 'ops::relu\(|\.max\(0\.0\)'; then
    echo "verify: a ReLU/pool loop is back in $cnn (lines above); the forward is ConvLayer::relu_pool" >&2
    exit 1
fi

step "the gradient lands in the residual (one accumulate call, no client gradient buffer, allocation-free kernels)"
# Line 4 of Algorithm 1 is one call: Client::compute_local_gradient lends
# the residual to Model::loss_and_accumulate_into, whose loss_and_land
# stores the weight-gradient products' register folds into it once. A
# loss_and_grad_into or a thread-local buffer in the client crate is the
# materialized D-vector growing back (the fixture's thread-locals are test
# hooks); a second caller of the accumulate entry is a second gradient
# path. The bench crate runs the old path once, as the spec its client-step
# rows are asserted against, and is exempt. The
# product kernels run on stack arrays: a vec! or Vec:: in kernels.rs is a
# per-call allocation coming back. Product code only (no #[cfg(test)]
# item); comment lines are exempt.
if for f in $(find crates/fl/src -name '*.rs' ! -name fixture.rs); do product_lines "$f"; done \
    | grep -E 'loss_and_grad_into|thread_local!'; then
    echo "verify: crates/fl/src materializes a gradient (lines above); land it with loss_and_accumulate_into" >&2
    exit 1
fi
accumulate_calls() {
    for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/bench/'); do product_lines "$f"; done \
        | grep 'loss_and_accumulate_into' | grep -v 'fn loss_and_accumulate_into'
}
if [[ "$(accumulate_calls | wc -l)" -ne 1 ]] \
    || [[ "$(fn_body crates/fl/src/client.rs compute_local_gradient | grep -c 'loss_and_accumulate_into')" -ne 1 ]]; then
    echo "verify: loss_and_accumulate_into must be called exactly once, in Client::compute_local_gradient:" >&2
    accumulate_calls >&2
    exit 1
fi
if product_lines crates/tensor/src/kernels.rs | grep -E 'vec!|Vec::'; then
    echo "verify: crates/tensor/src/kernels.rs allocates (lines above); the kernels run on stack arrays" >&2
    exit 1
fi

step "agsfl-tensor keeps only what the simulator calls (no general matrix library)"
# The models need a few dense products, a fused convolution and a
# cross-entropy; the seed's general linear algebra (a shape-error type, an
# allocating and a fallible matmul, identity, transpose, filled and
# row-slice constructors, dot/zero/mean/scale over slices) had no caller
# but its own tests and was deleted. Any of these names back in the product
# code of crates/*/src is that library growing back. Product code only (no
# #[cfg(test)] item); comment lines are exempt.
if for f in $(find crates/*/src -name '*.rs'); do product_lines "$f"; done \
    | grep -E 'ShapeError|try_matmul|fn matmul\(|fn identity\(|fn transpose\(|fn filled\(|fn from_rows\('; then
    echo "verify: a deleted general-purpose tensor item is back (lines above); use Matrix::matmul_into or agsfl_tensor::product" >&2
    exit 1
fi
if product_lines crates/tensor/src/vecops.rs | grep -E 'pub fn (dot|zero|mean|scale)\('; then
    echo "verify: crates/tensor/src/vecops.rs grew a deleted slice helper back (lines above)" >&2
    exit 1
fi

step "one result per comparison figure, one derivative estimator (deleted names stay gone)"
# Figs. 4-6 are one experiment, a lineup of methods at one communication
# time: they return figures::Comparison, and Fig. 6 is fig5::run with the
# lineup Algorithm 3, Algorithm 2. The derivative-sign estimator reads a
# RoundFeedback through agsfl_online::derivative / derivative_sign, not a
# third copy of the probe fields. A per-figure result type, a fig6 module
# or the estimator's input struct back in the product code is one of those
# copies growing back. Product code only (no #[cfg(test)] item); comment
# lines are exempt.
if for f in $(find crates/*/src examples crates/bench/benches -name '*.rs' | sort); do product_lines "$f"; done \
    | grep -E 'Fig[456]Result|figures::fig6|\bfig6::|mod fig6\b|EstimatorInputs|DerivativeSignEstimator'; then
    echo "verify: a deleted figure or estimator type is back (lines above); use figures::Comparison, fig5::run with a lineup, or agsfl_online::derivative_sign" >&2
    exit 1
fi

step "a cohort member is one Client (no Slot wrapper, one copy of a wired frame)"
# A cohort member is one Client: its round bookkeeping (plan, loss,
# delivered, worker times) and its upload buffers (entries, ranked view,
# errors) are its own fields, and Cohort.members is a Vec<Client>. A wired
# member's frame stays in its WireScratch, where the codec wrote it, and
# every reader borrows it there (Client::frame). A Slot type or
# constructor, a `slot.client` hop, or an extend_from_slice of an
# encode_into result in the product code of crates/fl/src is the wrapper
# or the frame copy growing back. Product code only (no #[cfg(test)] item);
# comment lines are exempt.
if fl_product | grep -E 'struct Slot\b|Slot::new|slot\.client\b|extend_from_slice\(.*encode_into\('; then
    echo "verify: a cohort member is split or its frame copied again (lines above); fold it into Client and read the frame from its WireScratch" >&2
    exit 1
fi

step "products keep their fold order (no fused multiply-add, no staged weight copies)"
# The goldens pin each product's exact sequence of roundings: a fused
# multiply-add rounds once where mul-then-add rounds twice, so neither the
# std method, the intrinsic family nor the target feature may appear in the
# kernels or the models.
if grep -rnE 'mul_add|fmadd|"fma"' crates/tensor/src crates/ml/src; then
    echo "verify: a fused multiply-add in the product path (lines above) would move every golden" >&2
    exit 1
fi
# The old streaming loops survive only as the scalar spec; nothing but the
# bench crate (the expected values its product and convolution rows are
# asserted against) and tests may call it. Product lines only, so a
# #[cfg(test)] item may compare a kernel with the spec.
if for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/bench/'); do product_lines "$f"; done \
    | grep -E 'agsfl_tensor::reference|^crates/tensor/src/[^:]+:[0-9]+:.*crate::reference'; then
    echo "verify: product code calls agsfl_tensor::reference (lines above); it is the spec, not a path" >&2
    exit 1
fi
# Models multiply straight out of the flat parameter vector through
# MatrixView; a block of it copied into a Matrix first is the staging copy
# coming back. Product code only (up to a file's #[cfg(test)]).
if for f in crates/ml/src/model/*.rs; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
done | grep -E 'params\[[^]]*\]\.to_vec\(\)'; then
    echo "verify: a model copies a parameter block before multiplying (lines above); borrow it as a MatrixView" >&2
    exit 1
fi

step "one dense network (Mlp and SimpleCnn are the models; no model copies its input)"
# Multinomial logistic regression is Mlp::new(d, &[], c): a third model
# type would be a second dense forward and backward to keep bit-identical.
# A model multiplies its first layer straight out of the caller's batch,
# as it does out of params: an input copied with as_slice().to_vec() is
# the copy the MLP used to make per forward and gradient. Product code
# only (no #[cfg(test)] item); comment lines are exempt.
model_product() {
    for f in crates/ml/src/model/*.rs; do product_lines "$f"; done
}
if model_product | grep -E 'impl[^{]*Model for ' | grep -vE 'impl Model for (Mlp|SimpleCnn) \{'; then
    echo "verify: a model other than Mlp and SimpleCnn (lines above); a dense network is an Mlp" >&2
    exit 1
fi
if model_product | grep -F 'as_slice().to_vec()'; then
    echo "verify: a model copies its input (lines above); borrow it as a MatrixView" >&2
    exit 1
fi

step "one row body (bench-report times every row through its ledger, and times no baseline; no fork-join, one evaluation type)"
# bench-report builds a KernelReport in one place, Ledger::time, which
# prints the row's line; a second literal is a hand-copied section body
# growing back (the type's definition, its impl and the tests are exempt).
# Each row times the shipped path only and asserts it against a spec value
# computed once: a second timed side (a baseline time, the ratio over it,
# the scoped-spawn dispatch baseline) is timing that no gate reads. The
# executor's scoped join had one caller, the downlink pricing, which now
# runs inline; FedAvg evaluates into agsfl_ml's GlobalEvaluation.
if [[ "$(awk '/#\[cfg\(test\)\]/ { exit } /KernelReport \{/ && !/(struct |impl |&)KernelReport \{/' \
    crates/bench/src/bin/bench_report.rs | wc -l)" -ne 1 ]]; then
    echo "verify: crates/bench/src/bin/bench_report.rs must build KernelReport exactly once (Ledger::time)" >&2
    exit 1
fi
if grep -rnE 'seed_ns|speedup|scoped_map_mut' crates/bench/src; then
    echo "verify: a timed baseline is back in the bench crate (lines above); time the shipped path and assert it against the spec" >&2
    exit 1
fi
if grep -n 'fn join' crates/exec/src/lib.rs; then
    echo "verify: Executor::join is back (line above); a region's borrows end inside its call" >&2
    exit 1
fi
if grep -rn 'FedAvgEvaluation' crates/*/src; then
    echo "verify: FedAvgEvaluation is back (lines above); FedAvgSimulation::evaluate returns GlobalEvaluation" >&2
    exit 1
fi

step "telemetry observes time (the recorder keeps spans; a round's facts live in its report)"
# A round's deterministic facts (k, round time, cohort, wire bytes, fault
# tallies) are recorded once, in RoundReport: the metrics line is written
# from it and RunHistory totals it. A counter or gauge copy of them is a
# second record that can drift from the first (one such copy counted two
# of the four fault losses), so the recorder has spans only.
if grep -rnE --include='*.rs' 'CounterId|GaugeId|record_round_report|fn counter\(|fn gauge\(' \
    crates/*/src src examples tests; then
    echo "verify: a counter or gauge is back (lines above); record the fact in RoundReport and the metrics line" >&2
    exit 1
fi

step "one controller step (a round's k, probe k' and precision come from its controller in agsfl_core::controlled_round alone)"
# The rule that turns a controller's proposal into a round (clamp,
# stochastic rounding, a probe only when the controller asks for one, the
# precision tier) and the round's report back into its feedback is written
# once, in crates/core/src/step.rs. A stochastic_round( or .probe_k() call
# anywhere else in the product code is a copy of that rule. Two calls are
# not steps: a controller asking its own part (self.FIELD.probe_k() in
# agsfl-online), and the rounding ablation, which measures Definition 2's
# bias without running a round. Product code only (no #[cfg(test)] item);
# comment lines are exempt.
step_calls() {
    for f in $(find crates/*/src examples crates/bench/benches -name '*.rs' | sort); do
        product_lines "$f"
    done | grep -E 'stochastic_round\(|\.probe_k\(\)' | grep -vE 'self\.[a-z_]+\.probe_k\(\)'
}
in_step=$(fn_body crates/core/src/step.rs controlled_round | grep -cE 'stochastic_round\(|\.probe_k\(\)' || true)
in_ablation=$(fn_body crates/bench/benches/ablations.rs rounding_ablation | grep -c 'stochastic_round(' || true)
if [[ "$in_step" -ne 2 ]] || [[ "$(step_calls | wc -l)" -ne $((in_step + in_ablation)) ]]; then
    echo "verify: stochastic_round( and .probe_k() belong in agsfl_core::controlled_round alone; call it instead of copying the step:" >&2
    step_calls >&2
    exit 1
fi

step "one type per k-controller (each algorithm implements KController itself; no adapter)"
# EXP3 and the continuous bandit turn a round into a cost and snapshot their
# own state, as Algorithms 2 and 3 and value-based descent do: every
# controller in agsfl-online is one type with one Snapshot impl. An
# Exp3Controller or BanditController in the product code of crates/*/src is
# the adapter growing back. Product code only (no #[cfg(test)] item);
# comment lines are exempt.
if for f in $(find crates/*/src -name '*.rs' | sort); do product_lines "$f"; done \
    | grep -E '\b(Exp3Controller|BanditController)\b'; then
    echo "verify: a k-controller adapter is back (lines above); implement KController on the algorithm itself" >&2
    exit 1
fi

step "no table beyond the paper (the memory bound is a test and a cohort run, not a sweep)"
# The population-scale sweep was retired: resident state bounded by
# participation is asserted in cohort_determinism, the peak-RSS gate is
# examples/million_clients.rs, and the benchmark's cohort_million_wired
# times the engine at 10^6 clients.
# (The pattern's brackets keep this line from matching itself.)
if grep -rnE 'scale[_]sweep|Scale[S]weep' crates/*/src examples README.md ARCHITECTURE.md; then
    echo "verify: the scale sweep is back (lines above); assert on a plain cohort run instead" >&2
    exit 1
fi

step "cargo build --release"
cargo build --release

step "benchmark package (outside the workspace, so the build above never compiles it)"
# --locked: a product change that would rewrite the tracked
# benchmark/Cargo.lock (a new dependency edge between workspace crates)
# fails here instead of changing the benchmark's lock file in passing.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
if [[ "$quick" -eq 0 ]]; then
    # Every workload and every probe once (~20 s); exits nonzero on a failed
    # output check (pipefail carries it past the grep, which only trims the
    # ~300 metric lines to one header and one check line per run), so API
    # the probes call is exercised, not just compiled.
    bash benchmark/run.sh --quick | grep -E '^(# [a-z_]+ seed=|failed_ops_pct)'
fi

step "cargo test -q (tier-1: root integration tests)"
cargo test -q

step "grow-only capacity (gradient/probe batch alternation and large/unit k rounds release nothing; a forward sizes its scratch by the row block)"
named_tests -q -p agsfl-ml --lib capacity_is_constant_under_alternating_gradient_and_probe_batches
named_tests -q -p agsfl-ml --lib forward_is_row_blocked_and_row_independent
named_tests -q -p agsfl-fl --lib workspace_capacity_never_decreases

step "product and convolution equivalence (every dispatch level == the scalar fold-order spec, bit for bit)"
cargo test -q -p agsfl-tensor --test product_equivalence
cargo test -q -p agsfl-tensor --test conv_equivalence
named_tests -q -p agsfl-tensor --test conv_equivalence backward

step "row fetches and seeked generation (a seek lands where drawing lands; rows == the whole shard's rows; every generator block has the width the seeks assume; generation on the pool == the sequential spec at every worker count; a warm gradient step allocates nothing of the client's, a real model's only its pinned count)"
named_tests -q -p rand_chacha set_word_pos_matches_drawing_at_every_offset
named_tests -q -p rand_chacha word_pos_round_trips_and_seeks_in_both_directions
cargo test -q -p agsfl-ml --test materialize_rows
named_tests -q -p agsfl-ml --test generate_schedule generation
cargo test -q -p agsfl-fl --test gradient_allocations

step "the pair gate (scripts/pair_summary.sh fails a row behind in >= 9/10 pairs by more than the parent's IQR, and no other; a kernel row is lower-is-better)"
# pair_gated.tsv: an end-to-end metric behind in 9/10 pairs and a kernel
# behind in 10/10, each by more than the parent's IQR, fail; a faster kernel
# passes. pair_passing.tsv: behind in 9/10 inside the IQR, behind in 8/10
# far outside it (once with the other two pairs ahead, once tied: a tie
# still counts in N), all ties, a faster kernel (which would fail if read
# higher-is-better), and a kernel only the change runs and one only the
# parent runs (a row added or deleted: 0 pairs, nothing to judge) all pass.
passing=$(scripts/pair_summary.sh scripts/testdata/pair_passing.tsv)
printf '%s\n' "$passing"
for kernel in telemetry_noop retired_kernel; do
    if ! grep -qE "^kernels +$kernel .* 0/0 +0/0 +ok$" <<<"$passing"; then
        echo "verify: pair_summary.sh must print kernels $kernel (one side only) with 0 pairs, passing" >&2
        exit 1
    fi
done
status=0
failed=$(scripts/pair_summary.sh scripts/testdata/pair_gated.tsv 2>&1 >/dev/null) || status=$?
if [[ "$status" -ne 1 ]] || [[ "$(grep '^  ' <<<"$failed")" != \
    $'  paper_cnn_adaptive rounds_per_s (behind in 9/10)\n  kernels fc_fwd@avx512 (behind in 10/10)' ]]; then
    echo "verify: pair_summary.sh on scripts/testdata/pair_gated.tsv exited $status, naming:" >&2
    printf '%s\n' "$failed" >&2
    exit 1
fi

step "the bench crate's workload shapes and the FedAvg baseline's last evaluated point"
cargo test -q -p agsfl-bench
named_tests -q -p agsfl-core --lib fedavg_run_evaluates_its_last_point

step "resume equivalence (interrupted + resumed runs are bit-identical)"
named_tests -q -p agsfl-fl resume
named_tests -q -p agsfl-core resume

step "decode fuzz (hostile frames never panic the wire layer)"
cargo test -q -p agsfl-wire --test decode_fuzz

step "selection contract (all five select_into == the seed spec, bit for bit, resets included, on rank-ordered and engine-shaped uploads and accumulated one at a time with a member lost; a warm selection allocates its two result buffers, a recycled one nothing, whatever the client count or resets; only delivered uploads are summed)"
cargo test -q -p agsfl-sparse --test select_equivalence
cargo test -q -p agsfl-sparse --test select_allocations
named_tests -q -p agsfl-fl --lib only_delivered_uploads_are_summed

step "upload contract (every plan, unwired and every codec: delivered entries index-ordered with their own rank as keys; uploads hold nothing after bookkeeping)"
named_tests -q -p agsfl-fl --lib delivered_uploads_are_index_ordered_and_slots_own_their_buffers
named_tests -q -p agsfl-bench --lib server_workload_is_engine_shaped

step "top-k equivalence (integer-key select/rank == the comparator spec, bit for bit; NaN never panics)"
cargo test -q -p agsfl-sparse --test topk_equivalence

step "wired uploads (one encode-then-decode per member over every codec; indexed selection, single-sweep radix, packed reset with per-entry errors, decode-to-keys rank, frame hash, integer quantize == their specs)"
# topk_equivalence above already ran the indexed-selection proptest. Every
# test and debug build re-derives each wired upload as decode_frame (and its
# order keys) inside Client::decode_upload, and every in-file
# simulation test checks each delivered upload's rank, so the in-file wired
# simulation tests check both too.
named_tests -q -p agsfl-fl --lib wired_upload_equals_its_decoded_frame
named_tests -q -p agsfl-sparse --lib single_sweep_radix_sort
named_tests -q -p agsfl-sparse --lib prop_packed_reset_equals_reset_by_binary_search
named_tests -q -p agsfl-wire --lib survey_reports_bounds
named_tests -q -p agsfl-wire --lib integer_quantize
named_tests -q -p agsfl-wire --test codec_roundtrip indexed_selection
named_tests -q -p agsfl-fl --lib wire

step "probe restriction (probe_aggregate == an independent select_into at k', bit for bit, all five sparsifiers)"
cargo test -q -p agsfl-sparse --test probe_restriction

step "checkpoint fuzz + format pins (hostile AGCK files never panic the resume; the bytes are pinned)"
cargo test -q -p agsfl-core --test checkpoint_fuzz
cargo test -q -p agsfl-core --test checkpoint_format

step "lossy tier (quantize/dequantize contracts + seed-reproducibility pins; a non-finite message goes out losslessly and a diverging run completes)"
cargo test -q -p agsfl-wire --test quantized_roundtrip
cargo test -q -p agsfl-fl --test lossy_reproducibility
named_tests -q -p agsfl-core qlinear8
named_tests -q -p agsfl-wire --test codec_roundtrip non_finite_messages_go_out_losslessly
named_tests -q -p agsfl-core --test byte_priced_runs diverging_runs_complete_on_every_lossy_codec

step "pool gate (goldens + lossy pins bit-identical through the worker pool at every worker count)"
# golden_trajectory and lossy_reproducibility sweep Serial/2/4/8 workers
# internally, so one pass covers the serial reference and three pool
# configurations; pool_lifecycle pins reuse-without-respawn across rounds;
# cohort_determinism takes the lazy shard source through the pool (each
# member's row fetch runs on the workers) and pins which rows every member
# fetches.
cargo test -q -p agsfl-fl --test golden_trajectory
cargo test -q -p agsfl-fl --test lossy_reproducibility
cargo test -q -p agsfl-fl --test pool_lifecycle
cargo test -q -p agsfl-fl --test cohort_determinism
named_tests -q -p agsfl-fl --test cohort_determinism lazy_residency_is_bounded_by_participation_not_population

step "bounded-RSS smoke (N=10^5 cohort rounds under a 256 MiB peak-RSS assertion)"
cargo run --release --example million_clients -- --smoke

step "telemetry gate (recording is observation-only; metrics files byte-identical across runs and worker counts, and total to the history)"
# telemetry_determinism pins recorded == unrecorded trajectories at
# Serial/2/4/8 workers and bounds the recorded round's overhead against
# the noop round; metrics_jsonl pins the JSONL sink output of two
# identical seeded runs byte-for-byte, a chaos run's file byte-identical
# at Serial/2/4 workers with its wire bytes and fault tallies summing to
# the RunHistory, and the recorded checkpoint/resume path bit-identical.
cargo test -q -p agsfl-fl --test telemetry_determinism
cargo test -q -p agsfl-core --test metrics_jsonl

if [[ "$quick" -eq 0 ]]; then
    step "cargo test --workspace -q (full suite)"
    cargo test --workspace -q

    step "cargo test --release -q -p agsfl-exec (the RSS probe test must hold under the optimizer too)"
    cargo test --release -q -p agsfl-exec

    step "cargo clippy --workspace (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings

    step "cargo clippy --workspace --release (debug-only code and imports stay scoped)"
    cargo clippy --workspace --all-targets --release -- -D warnings
fi

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "cargo fmt --check"
cargo fmt --check

printf '\nverify: all gates passed\n'
