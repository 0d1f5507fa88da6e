// Fixture: naming the simulation's arena outside src/sim/ and src/net/ must
// be flagged.
namespace fixture {

struct Flight {
  explicit Flight(dynreg::sim::Arena& arena);  // MUST-FLAG arena-scope
};

void build(Context& ctx, Context* other) {
  Flight a(ctx.arena());  // MUST-FLAG arena-scope
  Flight b(other -> arena ( ));  // MUST-FLAG arena-scope
  auto& pool = ctx.blocks();  // the block pool is every layer's
  (void)pool;
}

// A comment naming sim::Arena or ctx.arena() is not a use.
const char* kDoc = "sim::Arena and .arena() in a string are not uses either";

}  // namespace fixture
