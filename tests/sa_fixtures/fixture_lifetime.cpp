// dcpim-sa fixture: planted packet/event lifetime escapes (lifetime rule).
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - two field-escapes: a raw packet pointer field and a container of raw
//     packet pointers (both would dangle the instant the pool recycles)
//   - three callback-capture-escapes in scheduled lambdas: a default [&]
//     capture, an explicit &local capture, and a raw packet parameter
//     captured by value
//   - two factory-discipline escapes: `new` and make_unique of a packet
//     type (in --files mode no file is a sanctioned factory)
//   - negative controls that must NOT fire: owning unique_ptr fields,
//     by-value packet storage, an init-capture moving derived state, and a
//     non-packet allocation
//   - an sa-ok(lifetime)-suppressed capture that must NOT fire
//   - a malformed (justification-less) suppression that suppresses nothing
#include <memory>
#include <vector>

namespace fixture {

struct LifePacket {
  int seq = 0;
};

class LifeEngine {
 public:
  void on_packet(LifePacket* p) {
    int credits = 0;
    schedule_after(1, [&]() { drain(); });           // planted: [&] capture
    schedule_after(1, [&credits]() { (void)credits; });  // planted: &local
    schedule_after(1, [p]() { (void)p->seq; });      // planted: raw packet
    schedule_after(1, [this, seq = p->seq]() { last_seq_ = seq; });  // clean
  }

  LifePacket* make_raw() {
    return new LifePacket();  // planted: packet alloc outside the factory
  }

  std::unique_ptr<LifePacket> make_owned() {
    return std::make_unique<LifePacket>();  // planted: same, via make_unique
  }

  std::unique_ptr<int> make_other() {
    return std::make_unique<int>(7);  // non-packet allocation: clean
  }

  void audited_park(LifePacket* p) {
    // sa-ok(lifetime): the engine pins the packet until drain() runs inside
    // this same delivery event — nothing survives past the frame.
    schedule_after(1, [p]() { (void)p->seq; });
  }

  void sloppy_park(LifePacket* p) {
    // sa-ok(lifetime):
    schedule_after(1, [p]() { (void)p->seq; });  // planted: no justification
  }

  template <typename F>
  void schedule_after(int delay, F f);
  void drain();

 private:
  LifePacket* last_ = nullptr;          // planted: raw packet field
  std::vector<LifePacket*> window_;     // planted: container of raw packets
  std::unique_ptr<LifePacket> owned_;   // owning field: clean
  std::vector<LifePacket> copies_;      // by-value storage: clean
  int last_seq_ = 0;
  std::unique_ptr<LifePacket> spare_ = std::make_unique<LifePacket>();  // planted
};

// The body scan reads `fixture` as the allocated type here; the per-line
// scan still sees the packet type.
std::unique_ptr<LifePacket> make_qualified() {
  return std::make_unique<fixture::LifePacket>();  // planted: qualified type
}

}  // namespace fixture
