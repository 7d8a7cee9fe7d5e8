/* LD_PRELOAD stack sampler for boxes without `perf`.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SAMPLER_OUT=out.txt LD_PRELOAD=./sampler.so <binary built with
 *       -C force-frame-pointers=yes> ...
 *
 * A constructor arms ITIMER_PROF at 1 ms; the SIGPROF handler reads
 * RIP/RBP/RSP from the interrupted context and follows saved-rbp links
 * ([fp] = caller's fp, [fp+8] = return address) while they stay above rsp,
 * 8-aligned and increasing, into a preallocated buffer: no allocation and no
 * stdio in the handler. At exit the first line of /proc/self/maps (the PIE
 * load base) and one row of hex addresses per sample, leaf first, go to
 * $SAMPLER_OUT. x86-64 Linux only. Symbolise with sym.py.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_FRAMES 64
#define MAX_SAMPLES 200000

static uint64_t (*rows)[MAX_FRAMES];
static uint8_t *depths;
static volatile size_t n_rows;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    if (n_rows >= MAX_SAMPLES) return;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t fp = (uint64_t)regs[REG_RBP], sp = (uint64_t)regs[REG_RSP];
    uint64_t *row = rows[n_rows];
    size_t depth = 0;
    row[depth++] = (uint64_t)regs[REG_RIP];
    /* 8 MiB: the default stack limit, so a stray rbp cannot lead far away. */
    while (depth < MAX_FRAMES && fp > sp && fp - sp < (8u << 20) && fp % 8 == 0) {
        const uint64_t *frame = (const uint64_t *)fp;
        row[depth++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    depths[n_rows++] = (uint8_t)depth;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!out) return;
    if (maps && fgets(line, sizeof line, maps)) fputs(line, out);
    if (maps) fclose(maps);
    for (size_t i = 0; i < n_rows; i++) {
        for (size_t j = 0; j < depths[i]; j++)
            fprintf(out, j ? " %llx" : "%llx", (unsigned long long)rows[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    rows = calloc(MAX_SAMPLES, sizeof *rows);
    depths = calloc(MAX_SAMPLES, 1);
    if (!rows || !depths) return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
