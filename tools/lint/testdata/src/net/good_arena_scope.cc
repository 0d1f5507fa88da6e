// Fixture: the network makes its batch and spill blocks in the arena; the
// arena-scope rule leaves src/net/ (and src/sim/) alone.
namespace fixture {

void* batch_block(dynreg::sim::Simulation& sim, unsigned bytes) {
  dynreg::sim::Arena& arena = sim.arena();
  return arena.allocate(bytes, 8);
}

}  // namespace fixture
