#include "ult/fiber.hpp"

#include <cstdint>
#include <cstring>

// Sanitizer fiber annotations. Fiber switches move execution between
// stacks without the sanitizers noticing: TSan would attribute the events
// of every fiber on a kernel thread to one logical thread (masking or
// fabricating races), and ASan would flag stack frames of a resumed fiber
// as out-of-bounds. Both provide an explicit fiber API; we drive it at the
// four switch edges (thread->fiber entry, fiber landing, fiber->thread
// departure, thread landing).
#if defined(__SANITIZE_THREAD__)
#define HLSMPC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HLSMPC_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define HLSMPC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HLSMPC_ASAN 1
#endif
#endif

#ifdef HLSMPC_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#ifdef HLSMPC_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef HLSMPC_FIBER_ASM_SWITCH
// fiber_switch.S
extern "C" void hlsmpc_fiber_switch(void** save_sp, void* load_sp);
extern "C" void hlsmpc_fiber_entry();
#endif

namespace hlsmpc::ult {

namespace {
thread_local Fiber* g_current_fiber = nullptr;
}  // namespace

// --- annotation helpers (no-ops without the corresponding sanitizer) ----

void Fiber::san_create() {
#ifdef HLSMPC_TSAN
  if (san_fiber_ == nullptr) san_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::san_destroy() {
#ifdef HLSMPC_TSAN
  if (san_fiber_ != nullptr) {
    __tsan_destroy_fiber(san_fiber_);
    san_fiber_ = nullptr;
  }
#endif
}

/// Resumer side, just before swapping into the fiber.
void Fiber::san_enter_fiber() {
#ifdef HLSMPC_ASAN
  __sanitizer_start_switch_fiber(&san_resumer_fake_, stack_.get(),
                                 stack_bytes_);
#endif
#ifdef HLSMPC_TSAN
  san_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(san_fiber_, 0);
#endif
}

/// Fiber side, first instruction after landing on the fiber stack.
void Fiber::san_land_in_fiber() {
#ifdef HLSMPC_ASAN
  __sanitizer_finish_switch_fiber(san_own_fake_, &san_resumer_bottom_,
                                  &san_resumer_size_);
#endif
}

/// Fiber side, just before swapping back to the resumer. A dying fiber
/// passes no save slot so ASan releases its fake stack.
void Fiber::san_leave_fiber(bool dying) {
#ifdef HLSMPC_ASAN
  __sanitizer_start_switch_fiber(dying ? nullptr : &san_own_fake_,
                                 san_resumer_bottom_, san_resumer_size_);
#else
  (void)dying;
#endif
#ifdef HLSMPC_TSAN
  __tsan_switch_to_fiber(san_resumer_, 0);
#endif
}

/// Resumer side, first instruction after the fiber yielded or finished.
void Fiber::san_land_in_thread() {
#ifdef HLSMPC_ASAN
  __sanitizer_finish_switch_fiber(san_resumer_fake_, nullptr, nullptr);
#endif
}

// ------------------------------------------------------------------------

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body_(std::move(body)),
      stack_(new std::byte[stack_bytes]),
      stack_bytes_(stack_bytes) {
  if (!body_) throw std::invalid_argument("Fiber: empty body");
  if (stack_bytes_ < 16 * 1024) {
    throw std::invalid_argument("Fiber: stack too small");
  }
}

Fiber::~Fiber() { san_destroy(); }

#ifdef HLSMPC_FIBER_ASM_SWITCH

void Fiber::switch_in() { hlsmpc_fiber_switch(&return_sp_, sp_); }

void Fiber::switch_out() { hlsmpc_fiber_switch(&sp_, return_sp_); }

#else

void Fiber::switch_in() { swapcontext(&return_ctx_, &ctx_); }

void Fiber::switch_out() { swapcontext(&ctx_, &return_ctx_); }

#endif

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  self->san_land_in_fiber();
  try {
    self->body_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->done_ = true;
  // Return to the resumer for good; the stack is never resumed again.
  self->san_leave_fiber(/*dying=*/true);
  self->switch_out();
  __builtin_unreachable();
}

bool Fiber::resume() {
  if (done_) throw std::logic_error("Fiber::resume: fiber already finished");
  if (g_current_fiber != nullptr) {
    throw std::logic_error("Fiber::resume: nested fibers are not supported");
  }
  if (!started_) {
#ifdef HLSMPC_FIBER_ASM_SWITCH
    // The first frame, in the layout hlsmpc_fiber_switch pops: FP control
    // words, r15, r14, r13, r12, rbx, rbp, return address. The fiber
    // starts with the resumer's FP control words, r12 = the entry
    // function, rbp = 0 (ends frame-pointer walks), and "returns" into
    // hlsmpc_fiber_entry with rsp at the 16-byte aligned stack top.
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(x87_cw));
    const std::uint64_t frame[8] = {
        mxcsr | std::uint64_t{x87_cw} << 32,
        0,
        0,
        0,
        reinterpret_cast<std::uintptr_t>(&Fiber::trampoline),
        0,
        0,
        reinterpret_cast<std::uintptr_t>(&hlsmpc_fiber_entry)};
    const std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(stack_.get() + stack_bytes_) &
        ~std::uintptr_t{15};
    sp_ = reinterpret_cast<void*>(top - sizeof(frame));
    std::memcpy(sp_, frame, sizeof(frame));
#else
    if (getcontext(&ctx_) != 0) {
      throw std::runtime_error("Fiber: getcontext failed");
    }
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr;
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#endif
    san_create();
    started_ = true;
  }
  g_current_fiber = this;
  san_enter_fiber();
  switch_in();
  san_land_in_thread();
  g_current_fiber = nullptr;
  if (done_ && error_) std::rethrow_exception(error_);
  return done_;
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  if (self == nullptr) {
    throw std::logic_error("Fiber::yield: called outside any fiber");
  }
  // Clear before leaving so the worker thread observes "no fiber running";
  // restored by the next resume().
  g_current_fiber = nullptr;
  self->san_leave_fiber(/*dying=*/false);
  self->switch_out();
  self->san_land_in_fiber();
  g_current_fiber = self;
}

Fiber* Fiber::current() { return g_current_fiber; }

}  // namespace hlsmpc::ult
