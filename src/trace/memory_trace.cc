#include "trace/memory_trace.hh"

namespace bpsim
{

MemoryTrace::Reader
MemoryTrace::reader() const
{
    return Reader(*this);
}

} // namespace bpsim
