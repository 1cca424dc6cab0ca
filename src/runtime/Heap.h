//===- runtime/Heap.h - Objects, arrays and monitors ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniJ heap: class instances, integer/reference arrays, per-class
/// static storage, and the monitor state attached to every object.
///
/// There is no garbage collector; the paper's prototype likewise sized the
/// heap so GC never ran (Section 3.3), because object addresses identify
/// logical memory locations.  Our ObjectIds are stable by construction.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_RUNTIME_HEAP_H
#define HERD_RUNTIME_HEAP_H

#include "ir/Program.h"
#include "runtime/Value.h"
#include "support/Ids.h"

#include <unordered_map>
#include <vector>

namespace herd {

/// Monitor state carried by every object (Java-style reentrant monitor).
struct Monitor {
  ThreadId Owner;          ///< invalid when unowned
  uint32_t Recursion = 0;  ///< >1 for reentrant acquisitions
};

/// A heap cell: a class instance or an array.
struct HeapObject {
  ClassId Class;          ///< invalid for arrays and class-static objects
  AllocSiteId Site;       ///< invalid for class-static objects
  bool IsArray = false;
  bool IsClassStatics = false;
  std::vector<Value> Slots; ///< instance fields, statics, or array elements
  Monitor Mon;
};

/// The heap.  Objects are never moved or reclaimed, so an ObjectId is a
/// stable identity for the detector's logical memory locations.
class Heap {
public:
  explicit Heap(const Program &P) : P(P) {}

  /// Allocates an instance of \p Cls with zeroed fields.
  ObjectId allocate(ClassId Cls, AllocSiteId Site) {
    ObjectId Id(uint32_t(Objects.size()));
    HeapObject Obj;
    Obj.Class = Cls;
    Obj.Site = Site;
    Obj.Slots.resize(P.classDecl(Cls).InstanceFields.size());
    Objects.push_back(std::move(Obj));
    return Id;
  }

  /// Allocates an integer/reference array of \p Length zeroed elements.
  ObjectId allocateArray(int64_t Length, AllocSiteId Site) {
    ObjectId Id(uint32_t(Objects.size()));
    HeapObject Obj;
    Obj.Site = Site;
    Obj.IsArray = true;
    Obj.Slots.resize(size_t(Length));
    Objects.push_back(std::move(Obj));
    return Id;
  }

  /// Returns the pseudo-object holding \p Cls's static fields, creating it
  /// on first use.
  ObjectId classStatics(ClassId Cls) {
    auto It = StaticsByClass.find(Cls);
    if (It != StaticsByClass.end())
      return It->second;
    ObjectId Id(uint32_t(Objects.size()));
    HeapObject Obj;
    Obj.IsClassStatics = true;
    Obj.Slots.resize(P.classDecl(Cls).StaticFields.size());
    Objects.push_back(std::move(Obj));
    StaticsByClass.emplace(Cls, Id);
    return Id;
  }

  HeapObject &object(ObjectId Id) { return Objects[Id.index()]; }
  const HeapObject &object(ObjectId Id) const { return Objects[Id.index()]; }

  size_t size() const { return Objects.size(); }

  /// Every object can be used as a lock; its LockId is its object index.
  /// (The detector's dummy join locks use a disjoint id range; see
  /// detect/LocksetFrontEnd.)
  static LockId lockOf(ObjectId Obj) { return LockId(Obj.index()); }

private:
  const Program &P;
  std::vector<HeapObject> Objects;
  std::unordered_map<ClassId, ObjectId> StaticsByClass;
};

} // namespace herd

#endif // HERD_RUNTIME_HEAP_H
