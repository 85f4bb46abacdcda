// Contract interface (paper §3).
//
// Contracts are deterministic programs resident on one blockchain. They are
// passive (run only when a published entry calls them), can read any data on
// their own chain and call sibling contracts, but have no access to other
// chains or the outside world. Cross-chain information reaches a contract
// only as arguments supplied (and typically proven) by a calling party.

#ifndef XDEAL_CHAIN_CONTRACT_H_
#define XDEAL_CHAIN_CONTRACT_H_

#include <string>

#include "chain/gas.h"
#include "chain/ids.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/serialize.h"

namespace xdeal {

class Blockchain;
class World;
using Tick = uint64_t;  // must match sim/scheduler.h

/// A contract call as published in a chain entry: function name plus
/// canonically serialized arguments.
struct CallData {
  std::string function;
  Bytes args;
};

/// Execution context handed to a contract invocation.
struct CallContext {
  World* world = nullptr;        // public data only (key directory)
  Blockchain* chain = nullptr;   // the contract's own chain
  PartyId sender;                // authenticated publisher of the entry
  Tick now = 0;                  // block timestamp (height * interval)
  uint64_t block_height = 0;
  GasMeter* gas = nullptr;
};

/// Base class for on-chain programs. Invoke dispatches on function name and
/// deserializes arguments; a failed `require` is reported as a non-OK Status
/// (gas already charged stays charged).
class Contract {
 public:
  virtual ~Contract() = default;

  /// Human-readable type, for logs and receipts ("FungibleToken", ...).
  virtual std::string TypeName() const = 0;

  /// Executes `fn` with serialized arguments. Returns serialized results.
  virtual Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                               ByteReader& args) = 0;

  /// True if this contract type implements TransferState. Long-lived
  /// contracts (token ledgers) must; per-deal contracts whose deals have
  /// settled by the checkpoint boundary need not — the checkpointer retires
  /// them to inert placeholders instead.
  virtual bool SupportsSnapshot() const { return false; }

  /// Lists the mutable contract state on `io` (see SnapshotIO): encodes it
  /// canonically, or decodes it into this freshly constructed contract.
  virtual Status TransferState(SnapshotIO& /*io*/) {
    return Status::FailedPrecondition("contract type " + TypeName() +
                                      " does not support snapshot");
  }

  /// The contract's own id on its chain (set at deployment). Escrow
  /// contracts use it to hold assets in their own name.
  ContractId self_id() const { return self_id_; }

  /// Called once by Blockchain::Deploy.
  void OnDeployed(ContractId id) { self_id_ = id; }

 private:
  ContractId self_id_;
};

}  // namespace xdeal

#endif  // XDEAL_CHAIN_CONTRACT_H_
