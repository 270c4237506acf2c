/* SHA-256 (FIPS 180-4), C implementation.
 *
 * The compression function lives behind one entry point, [blocks],
 * with two implementations:
 *
 *   - sha256_blocks_shani: x86 SHA extensions (sha256rnds2 et al.),
 *     the Intel-documented round/message-schedule interleaving. One
 *     block in ~tens of cycles.
 *   - sha256_blocks_c: portable scalar C, used when the CPU lacks the
 *     extensions (or on non-x86 builds).
 *
 * Both compute the identical FIPS 180-4 function, so digests are
 * bit-for-bit the same whichever runs; the NIST vectors in the test
 * suite cover the selected path on every machine that runs them. The
 * dispatch is resolved once, the first time a block is compressed.
 *
 * Three kinds of caller sit on top of it:
 *
 *   - ac3_sha256_compress_stub: whole 64-byte blocks for the OCaml
 *     streaming context (sha256.ml), which keeps buffering, padding
 *     and the length suffix. [@@noalloc]; the state array holds eight
 *     immediate ints, so fields are written directly.
 *   - the one-shot digests (digest, digest2, digest_list): pad,
 *     compress and emit here, allocating only the 32-byte result.
 *   - two loops that hash one message many times with a patched tail:
 *     the proof-of-work grinder (nonce) and the WOTS chain walk (step
 *     index and chain value). Each pads once and keeps the state after
 *     the blocks a patch cannot reach.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* --- portable scalar implementation --------------------------------- */

static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_blocks_c(uint32_t state[8], const unsigned char *data,
                            size_t nblocks)
{
    uint32_t w[64];
    while (nblocks--) {
        for (int i = 0; i < 16; i++)
            w[i] = ((uint32_t)data[4 * i] << 24) | ((uint32_t)data[4 * i + 1] << 16)
                 | ((uint32_t)data[4 * i + 2] << 8) | (uint32_t)data[4 * i + 3];
        for (int i = 16; i < 64; i++) {
            uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
            uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; i++) {
            uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
            uint32_t ch = (e & f) ^ (~e & g);
            uint32_t t1 = h + s1 + ch + K[i] + w[i];
            uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
            uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            uint32_t t2 = s0 + maj;
            h = g; g = f; f = e; e = d + t1;
            d = c; c = b; b = a; a = t1 + t2;
        }
        state[0] += a; state[1] += b; state[2] += c; state[3] += d;
        state[4] += e; state[5] += f; state[6] += g; state[7] += h;
        data += 64;
    }
}

/* --- x86 SHA extensions ---------------------------------------------- */

#if defined(__x86_64__) || defined(__i386__)
#define AC3_SHANI_POSSIBLE 1
#include <immintrin.h>

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_blocks_shani(uint32_t state[8], const unsigned char *data,
                                size_t nblocks)
{
    __m128i STATE0, STATE1, MSG, TMP, MSG0, MSG1, MSG2, MSG3;
    __m128i ABEF_SAVE, CDGH_SAVE;
    const __m128i MASK =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    TMP = _mm_loadu_si128((const __m128i *)&state[0]);
    STATE1 = _mm_loadu_si128((const __m128i *)&state[4]);

    TMP = _mm_shuffle_epi32(TMP, 0xB1);          /* CDAB */
    STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);    /* EFGH */
    STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);    /* ABEF */
    STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0); /* CDGH */

    while (nblocks--) {
        ABEF_SAVE = STATE0;
        CDGH_SAVE = STATE1;

        /* rounds 0-3 */
        MSG = _mm_loadu_si128((const __m128i *)(data + 0));
        MSG0 = _mm_shuffle_epi8(MSG, MASK);
        MSG = _mm_add_epi32(MSG0,
            _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

        /* rounds 4-7 */
        MSG1 = _mm_loadu_si128((const __m128i *)(data + 16));
        MSG1 = _mm_shuffle_epi8(MSG1, MASK);
        MSG = _mm_add_epi32(MSG1,
            _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

        /* rounds 8-11 */
        MSG2 = _mm_loadu_si128((const __m128i *)(data + 32));
        MSG2 = _mm_shuffle_epi8(MSG2, MASK);
        MSG = _mm_add_epi32(MSG2,
            _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

        /* rounds 12-15 */
        MSG3 = _mm_loadu_si128((const __m128i *)(data + 48));
        MSG3 = _mm_shuffle_epi8(MSG3, MASK);
        MSG = _mm_add_epi32(MSG3,
            _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
        MSG0 = _mm_add_epi32(MSG0, TMP);
        MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

        /* rounds 16-19 */
        MSG = _mm_add_epi32(MSG0,
            _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
        MSG1 = _mm_add_epi32(MSG1, TMP);
        MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

        /* rounds 20-23 */
        MSG = _mm_add_epi32(MSG1,
            _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
        MSG2 = _mm_add_epi32(MSG2, TMP);
        MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

        /* rounds 24-27 */
        MSG = _mm_add_epi32(MSG2,
            _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
        MSG3 = _mm_add_epi32(MSG3, TMP);
        MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

        /* rounds 28-31 */
        MSG = _mm_add_epi32(MSG3,
            _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
        MSG0 = _mm_add_epi32(MSG0, TMP);
        MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

        /* rounds 32-35 */
        MSG = _mm_add_epi32(MSG0,
            _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
        MSG1 = _mm_add_epi32(MSG1, TMP);
        MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

        /* rounds 36-39 */
        MSG = _mm_add_epi32(MSG1,
            _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
        MSG2 = _mm_add_epi32(MSG2, TMP);
        MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

        /* rounds 40-43 */
        MSG = _mm_add_epi32(MSG2,
            _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
        MSG3 = _mm_add_epi32(MSG3, TMP);
        MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

        /* rounds 44-47 */
        MSG = _mm_add_epi32(MSG3,
            _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
        MSG0 = _mm_add_epi32(MSG0, TMP);
        MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

        /* rounds 48-51 */
        MSG = _mm_add_epi32(MSG0,
            _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
        MSG1 = _mm_add_epi32(MSG1, TMP);
        MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
        MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

        /* rounds 52-55 */
        MSG = _mm_add_epi32(MSG1,
            _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
        MSG2 = _mm_add_epi32(MSG2, TMP);
        MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

        /* rounds 56-59 */
        MSG = _mm_add_epi32(MSG2,
            _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
        MSG3 = _mm_add_epi32(MSG3, TMP);
        MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

        /* rounds 60-63 */
        MSG = _mm_add_epi32(MSG3,
            _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
        MSG = _mm_shuffle_epi32(MSG, 0x0E);
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

        STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
        STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);

        data += 64;
    }

    TMP = _mm_shuffle_epi32(STATE0, 0x1B);       /* FEBA */
    STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);    /* DCHG */
    STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0); /* DCBA */
    STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);    /* HGFE -> EFGH */

    _mm_storeu_si128((__m128i *)&state[0], STATE0);
    _mm_storeu_si128((__m128i *)&state[4], STATE1);
}
#endif /* x86 */

/* --- dispatch --------------------------------------------------------- */

typedef void (*blocks_fn)(uint32_t[8], const unsigned char *, size_t);

static blocks_fn resolve(void)
{
#ifdef AC3_SHANI_POSSIBLE
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
        && __builtin_cpu_supports("ssse3"))
        return sha256_blocks_shani;
#endif
    return sha256_blocks_c;
}

static blocks_fn blocks = NULL;

/* Every caller resolves through here. Two domains racing on the first
 * call both store the same pointer. */
static blocks_fn get_blocks(void)
{
    blocks_fn f = blocks;
    if (f == NULL) {
        f = resolve();
        blocks = f;
    }
    return f;
}

/* [vh] is an 8-element OCaml int array holding the working variables
 * H0..H7; [vbuf] a Bytes.t with [vnblocks] whole 64-byte blocks at
 * [voff]. Int-array stores are immediates, so plain field writes are
 * safe without the write barrier. */
CAMLprim value ac3_sha256_compress_stub(value vh, value vbuf, value voff,
                                        value vnblocks)
{
    uint32_t st[8];
    for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(vh, i));
    get_blocks()(st, (const unsigned char *)Bytes_val(vbuf) + Long_val(voff),
                 (size_t)Long_val(vnblocks));
    for (int i = 0; i < 8; i++) Field(vh, i) = Val_long((long)st[i]);
    return Val_unit;
}

/* Exposed so the benchmark harness can report which path is measured. */
CAMLprim value ac3_sha256_shani_available_stub(value unit)
{
    (void)unit;
#ifdef AC3_SHANI_POSSIBLE
    return Val_bool(__builtin_cpu_supports("sha")
                    && __builtin_cpu_supports("sse4.1")
                    && __builtin_cpu_supports("ssse3"));
#else
    return Val_false;
#endif
}

/* --- whole-message loops ----------------------------------------------
 *
 * The loops below run per hash, so they pad, compress and emit here
 * instead of crossing into C once per block. Each goes through the
 * same [blocks] dispatch as the streaming layer. */

static const uint32_t IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static void store_be32(unsigned char *p, uint32_t v)
{
    p[0] = (unsigned char)(v >> 24);
    p[1] = (unsigned char)(v >> 16);
    p[2] = (unsigned char)(v >> 8);
    p[3] = (unsigned char)v;
}

static void store_be64(unsigned char *p, uint64_t v)
{
    store_be32(p, (uint32_t)(v >> 32));
    store_be32(p + 4, (uint32_t)v);
}

static void store_state(unsigned char out[32], const uint32_t h[8])
{
    for (int i = 0; i < 8; i++) store_be32(out + 4 * i, h[i]);
}

/* One 32-byte OCaml string holding [d]. Nothing the caller passed in is
 * read after the allocation, so no root registration is needed. */
static value digest_value(const unsigned char d[32])
{
    value r = caml_alloc_string(32);
    memcpy(Bytes_val(r), d, 32);
    return r;
}

/* Streaming state for a message fed in pieces. */
typedef struct {
    blocks_fn f;
    uint32_t h[8];
    unsigned char buf[64];
    size_t buf_len;
    uint64_t total;
} sha_ctx;

static void ctx_init(sha_ctx *c)
{
    c->f = get_blocks();
    memcpy(c->h, IV, sizeof IV);
    c->buf_len = 0;
    c->total = 0;
}

static void ctx_feed(sha_ctx *c, const unsigned char *p, size_t len)
{
    c->total += len;
    if (c->buf_len > 0) {
        size_t take = 64 - c->buf_len;
        if (take > len) take = len;
        memcpy(c->buf + c->buf_len, p, take);
        c->buf_len += take;
        p += take;
        len -= take;
        if (c->buf_len < 64) return;
        c->f(c->h, c->buf, 1);
        c->buf_len = 0;
    }
    size_t n = len / 64;
    if (n > 0) {
        c->f(c->h, p, n);
        p += 64 * n;
        len -= 64 * n;
    }
    memcpy(c->buf, p, len);
    c->buf_len = len;
}

static void ctx_final(sha_ctx *c, unsigned char out[32])
{
    unsigned char tail[128];
    size_t n = c->buf_len;
    size_t tlen = n + 9 <= 64 ? 64 : 128;
    memcpy(tail, c->buf, n);
    tail[n] = 0x80;
    memset(tail + n + 1, 0, tlen - n - 9);
    store_be64(tail + tlen - 8, c->total * 8);
    c->f(c->h, tail, tlen / 64);
    store_state(out, c->h);
}

/* [vs] is a string or bytes; the digest covers [vlen] bytes at [voff]
 * (bounds checked by the caller). */
CAMLprim value ac3_sha256_digest_stub(value vs, value voff, value vlen)
{
    sha_ctx c;
    unsigned char d[32];
    ctx_init(&c);
    ctx_feed(&c, (const unsigned char *)String_val(vs) + Long_val(voff),
             (size_t)Long_val(vlen));
    ctx_final(&c, d);
    return digest_value(d);
}

CAMLprim value ac3_sha256_digest2_stub(value vs)
{
    sha_ctx c;
    unsigned char d[32];
    ctx_init(&c);
    ctx_feed(&c, (const unsigned char *)String_val(vs), caml_string_length(vs));
    ctx_final(&c, d);
    ctx_init(&c);
    ctx_feed(&c, d, 32);
    ctx_final(&c, d);
    return digest_value(d);
}

CAMLprim value ac3_sha256_digest_list_stub(value vparts)
{
    sha_ctx c;
    unsigned char d[32];
    ctx_init(&c);
    for (; vparts != Val_emptylist; vparts = Field(vparts, 1)) {
        value s = Field(vparts, 0);
        ctx_feed(&c, (const unsigned char *)String_val(s), caml_string_length(s));
    }
    ctx_final(&c, d);
    return digest_value(d);
}

/* A message padded once and hashed many times with bytes patched at or
 * after offset [patch_off]. The blocks wholly before that offset never
 * change, so their state (the midstate) is computed once. */
typedef struct {
    blocks_fn f;
    unsigned char *msg; /* the padded message, nblocks * 64 bytes */
    size_t nblocks;
    size_t first;       /* first block a patch can reach */
    uint32_t mid[8];    /* state after blocks [0, first) */
} patched;

static size_t padded_len(size_t len) { return (len + 9 + 63) / 64 * 64; }

/* [buf] must hold [padded_len len] bytes. */
static void patched_init(patched *m, unsigned char *buf,
                         const unsigned char *src, size_t len, size_t patch_off)
{
    size_t plen = padded_len(len);
    memcpy(buf, src, len);
    buf[len] = 0x80;
    memset(buf + len + 1, 0, plen - len - 9);
    store_be64(buf + plen - 8, (uint64_t)len * 8);
    m->f = get_blocks();
    m->msg = buf;
    m->nblocks = plen / 64;
    m->first = patch_off / 64;
    memcpy(m->mid, IV, sizeof IV);
    if (m->first > 0) m->f(m->mid, buf, m->first);
}

static void patched_hash(const patched *m, uint32_t st[8])
{
    memcpy(st, m->mid, sizeof m->mid);
    m->f(st, m->msg + 64 * m->first, m->nblocks - m->first);
}

/* Messages up to this padded size stay on the C stack. */
#define LOCAL_MSG 512

static unsigned char *msg_buffer(unsigned char *local, size_t plen)
{
    unsigned char *buf = plen <= LOCAL_MSG ? local : malloc(plen);
    if (buf == NULL) caml_raise_out_of_memory();
    return buf;
}

/* PoW grinder. [vheader] is a serialized header whose last 8 bytes are
 * the nonce, [vtarget] a 32-byte big-endian target (both checked by the
 * caller). Returns the least nonce n < [vmax] such that
 * SHA-256(SHA-256(header with nonce n, big-endian)) <= target, or -1.
 * Inputs are copied to C memory first, so the loop runs without the
 * domain's runtime lock and allocates nothing. */
CAMLprim value ac3_sha256_grind_stub(value vheader, value vtarget, value vmax)
{
    unsigned char local[LOCAL_MSG], outer[64];
    uint32_t target[8], st[8];
    size_t len = caml_string_length(vheader);
    intnat max_iters = Long_val(vmax), found = -1;
    const unsigned char *t = (const unsigned char *)String_val(vtarget);
    for (int i = 0; i < 8; i++)
        target[i] = ((uint32_t)t[4 * i] << 24) | ((uint32_t)t[4 * i + 1] << 16)
                  | ((uint32_t)t[4 * i + 2] << 8) | (uint32_t)t[4 * i + 3];
    unsigned char *buf = msg_buffer(local, padded_len(len));
    patched m;
    patched_init(&m, buf, (const unsigned char *)String_val(vheader), len, len - 8);
    /* The outer hash is always one block: 32 digest bytes, then the
     * padding of a 256-bit message. */
    memset(outer + 32, 0, 32);
    outer[32] = 0x80;
    outer[62] = 0x01;
    caml_enter_blocking_section();
    for (intnat n = 0; n < max_iters && found < 0; n++) {
        store_be64(buf + len - 8, (uint64_t)n);
        patched_hash(&m, st);
        store_state(outer, st);
        memcpy(st, IV, sizeof IV);
        m.f(st, outer, 1);
        int i = 0;
        while (i < 8 && st[i] == target[i]) i++;
        if (i == 8 || st[i] < target[i]) found = n;
    }
    caml_leave_blocking_section();
    if (buf != local) free(buf);
    return Val_long(found);
}

/* WOTS chain walk. [vframe] is the framed step message, ending in the
 * 2-byte big-endian step index and the 32-byte chain value. Runs steps
 * [vfrom] .. [vto]-1, each hashing the frame with its step and value
 * patched, and returns the last value. */
CAMLprim value ac3_wots_chain_stub(value vframe, value vfrom, value vto)
{
    unsigned char local[LOCAL_MSG], d[32];
    uint32_t st[8];
    size_t len = caml_string_length(vframe);
    intnat from = Long_val(vfrom), to = Long_val(vto);
    if (len < 34) caml_invalid_argument("Wots.chain: frame too short");
    size_t step_off = len - 34, x_off = len - 32;
    unsigned char *buf = msg_buffer(local, padded_len(len));
    patched m;
    patched_init(&m, buf, (const unsigned char *)String_val(vframe), len, step_off);
    for (intnat s = from; s < to; s++) {
        buf[step_off] = (unsigned char)(s >> 8);
        buf[step_off + 1] = (unsigned char)s;
        patched_hash(&m, st);
        store_state(buf + x_off, st);
    }
    memcpy(d, buf + x_off, 32);
    if (buf != local) free(buf);
    return digest_value(d);
}
